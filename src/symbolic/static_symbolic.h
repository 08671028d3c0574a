// Static symbolic factorization (George & Ng, ref. [6] of the paper).
//
// Computes the filled pattern Abar = Lbar + Ubar - I that contains the
// structures of the L and U factors of PA for EVERY row permutation P that
// partial pivoting can produce.  The scheme: at step k, the pivot-candidate
// rows R_k = { i >= k : abar_ik != 0 } all receive the union of their
// structures restricted to columns >= k -- whichever of them becomes the
// pivot row, the fill it causes is covered.
//
// The LU factorization is then computed on Abar instead of A (the S*/S+
// approach): some operations touch explicit zeros, but the structure, the
// task graph and the schedule are all known statically.
//
// Two engines:
//   * kBitset    - rows as 64-bit word bitsets; O(sum |R_k| * n/64) words.
//     The production engine for the problem sizes in the paper (n <= ~10^4).
//   * kRowMerge  - rows as sorted index vectors updated by set-union.
//     Independent implementation used to cross-validate the bitset engine
//     and as the second arm of the A3 ablation bench.
#pragma once

#include <string>

#include "matrix/csc.h"
#include "runtime/parallel_for.h"

namespace plu::symbolic {

enum class Engine { kBitset, kRowMerge };

struct SymbolicResult {
  Pattern abar;   // filled pattern, diagonal included
  long nnz_lbar;  // entries of Lbar including the diagonal
  long nnz_ubar;  // entries of Ubar including the diagonal

  /// |Abar| / |A|, the fill ratio reported in Table 1.
  double fill_ratio(int nnz_a) const {
    return nnz_a > 0 ? static_cast<double>(abar.nnz()) / nnz_a : 0.0;
  }
};

/// Runs the static symbolic factorization.  The pattern must be square with
/// a zero-free (structural) diagonal; throws std::invalid_argument otherwise.
SymbolicResult static_symbolic_factorization(const Pattern& a,
                                             Engine engine = Engine::kBitset);

/// Forwards to the overload above; kept for perfbench/traced.cpp.
inline SymbolicResult static_symbolic_factorization(const Pattern& a,
                                                    Engine engine, rt::Team&) {
  return static_symbolic_factorization(a, engine);
}

/// Theorem 3, operationally: static symbolic factorization commutes with a
/// symmetric eforest-postorder permutation, i.e.
///   symbolic(P^T A P) == P^T symbolic(A) P.
/// `a` is the pre-symbolic pattern (zero-free diagonal), `abar` its filled
/// pattern, `perm` the postorder relabeling.  This is what lets analysis
/// permute Abar directly instead of recomputing the symbolic step.
bool postorder_commutes_with_symbolic(const Pattern& a, const Pattern& abar,
                                      const Permutation& perm,
                                      Engine engine = Engine::kBitset);

std::string to_string(Engine e);

// ---------------------------------------------------------------------------
// Fill analysis: how much does the static scheme overestimate?
// ---------------------------------------------------------------------------
// The paper motivates the static approach against SuperLU's dynamic symbolic
// factorization; the cost is overestimation (operations on explicit zeros).
// These helpers quantify it.

/// Symbolic fill of an elimination with a FIXED pivot order (no pivoting):
/// at step k only row k spreads its tail to rows with an entry in column k.
/// This is the fill the factorization actually produces for the pivot
/// sequence that renders the matrix's diagonal (apply the known pivot
/// permutation to the rows first to evaluate a specific run).
Pattern no_pivot_fill(const Pattern& a);

/// Upper bound used by SuperLU's column-etree approach: the Cholesky factor
/// structure of A^T A (as L + L^T with diagonal), which the paper says
/// "substantially overestimates" the LU structures.
Pattern ata_cholesky_bound(const Pattern& a);

}  // namespace plu::symbolic
