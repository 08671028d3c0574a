// Post-factorization utilities: the panel walk every triangular solve
// shares, determinant, pivot permutation, dense factor extraction
// (test/debug aids for small problems), condition and growth estimates.
#pragma once

#include <utility>
#include <vector>

#include "blas/dense.h"
#include "core/numeric.h"

namespace plu {

// The panel walk.  Every solve (step 4 of the paper's scheme) uses the
// factors as the panel tasks left them, each panel's interchanges deferred.

/// Global rows of panel k in packed order: the rows of supernode k, then
/// those of each L block of block_plan.columns[k].l_list.  Overwrites
/// `rows`, reusing its capacity.
void panel_rows(const Analysis& an, int k, std::vector<int>& rows);

/// Panel interchanges `piv` undone on v, indexed by global row: the swaps
/// of rows[c] and rows[piv[c]], last swap first.
template <class T>
void undo_interchanges(const std::vector<int>& piv,
                       const std::vector<int>& rows, T* v) {
  for (std::size_t c = piv.size(); c-- > 0;) {
    if (piv[c] != static_cast<int>(c)) std::swap(v[rows[c]], v[rows[piv[c]]]);
  }
}

/// The panel walk split by eforest tree.  Theorem 3 makes the postordered
/// matrix block upper triangular with one diagonal block per tree, so tree
/// t owns block columns bounds[t] .. bounds[t+1] and its panels' rows and
/// interchanges stay inside its own rows: the forward walks of different
/// trees are independent.  A backward walk also subtracts U blocks from the
/// rows of earlier trees.  `succ` / `indegree` is the DAG over tasks
/// 0 .. T-1 (forward walk of tree t) and T .. 2T-1 (backward walk of tree
/// t) that orders them: each forward before its own backward, and for each
/// tree the backward walks that write its rows chained in descending tree
/// order -- the first after its forward, the last before its own backward
/// -- so every row gets its operations in the order of one walk over all
/// panels.  Trees that are not contiguous block ranges (postorder off)
/// make one tree; one tree leaves the DAG empty.
struct SolveTrees {
  std::vector<int> bounds;
  std::vector<std::vector<int>> succ;
  std::vector<int> indegree;

  int count() const { return static_cast<int>(bounds.size()) - 1; }
};

SolveTrees solve_trees(const Analysis& an);

/// Solve prologue: throws std::runtime_error unless f's factors are usable,
/// std::logic_error when f is partial and std::invalid_argument unless b
/// has n rows and x has b's shape (`what` names the solve).  Then returns
/// Y(i, :) = s[old] * B(old, :), old = gather[i], s = `scale` (1 if empty).
blas::DenseMatrix solve_prologue(const Factorization& f, const char* what,
                                 blas::ConstMatrixView b,
                                 blas::ConstMatrixView x,
                                 const std::vector<int>& gather,
                                 const std::vector<double>& scale);

/// Solve epilogue: X(old, :) = s[old] * Y(j, :), old = scatter[j].
void solve_epilogue(blas::ConstMatrixView y, const std::vector<int>& scatter,
                    const std::vector<double>& scale, blas::MatrixView x);

struct Determinant {
  double log_abs = 0.0;  // log |det A|
  int sign = 0;          // -1, 0, +1
};

/// Determinant from the U diagonal, the pivot interchanges and the analysis
/// permutations.
Determinant determinant(const Factorization& f);

/// Dense unit-lower L factor of the permuted matrix (small problems only).
blas::DenseMatrix extract_l_dense(const Factorization& f);

/// Dense upper U factor of the permuted matrix (small problems only).
blas::DenseMatrix extract_u_dense(const Factorization& f);

/// The accumulated row-pivot permutation of the factorization, as acting on
/// the analysis-ordered matrix: row `r` of L*U corresponds to row
/// pivot_old_of[r] of Apre: the forward composition of the deferred
/// interchanges (extract_l_dense walks the backward one).
std::vector<int> pivot_old_of(const Factorization& f);

/// Lower-bound estimate of ||A^{-1}||_1 by Higham's power method on the
/// factored inverse (solve + solve_transpose per iteration; typically 2-4
/// iterations).  Within a small factor of the truth in practice, never
/// above it.
double inverse_norm1_estimate(const Factorization& f, int max_iterations = 8);

struct ConditionEstimate {
  double norm_a = 0.0;     // ||A||_1 (exact)
  double norm_ainv = 0.0;  // ||A^{-1}||_1 (estimated)
  double cond1 = 0.0;      // product
};

/// 1-norm condition estimate of the matrix behind the factorization.
ConditionEstimate estimate_condition(const Factorization& f, const CscMatrix& a);

/// Pivot growth max|U| / max|Apre| (SuperLU reports its reciprocal), with
/// `a` the matrix that was factorized: values far above 1 flag elimination
/// growth, the classic instability signature of weak pivoting.
double pivot_growth(const Factorization& f, const CscMatrix& a);

}  // namespace plu
