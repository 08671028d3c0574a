// Block-task kernel bodies shared by the 1-D and 2-D numeric drivers
// (core/driver.cpp).  Each of the four task-body operations -- the
// partial-pivoting block factor, the deferred / local pivot application,
// the triangular solves, and the additive Schur gemm -- exists exactly
// once, here; the drivers contribute only task enumeration, dispatch and
// footprint recording.
//
// All kernels operate on views into the shared BlockMatrix storage
// (core/block_storage.h), which lays a block column out contiguously
// (diagonal block first, then the sorted L row blocks) so the same buffer
// serves as the 1-D packed panel and as the 2-D per-block operands.
#pragma once

#include <vector>

#include "blas/dense.h"
#include "blas/level3.h"
#include "core/block_storage.h"

namespace plu::kernels {

/// Outcome of one block factorization: the breakdown signals the drivers
/// fold into the run-wide FactorStatus (core/status.h).
struct FactorResult {
  /// LAPACK info: 0, or the 0-based panel column of the first exact-zero
  /// pivot + 1.  Always 0 when perturbation rescued every tiny pivot.
  int info = 0;
  /// Panel column of the first non-finite entry found in the factored
  /// block (-1 when all entries are finite).  A non-finite entry means an
  /// upstream update overflowed or the input already carried NaN/Inf.
  int first_nonfinite = -1;
  /// Panel columns whose pivot was bumped to the static perturbation
  /// magnitude (empty when perturbation is off).
  std::vector<int> perturbed;
};

/// Partial-pivoting LU on a panel or diagonal block: blocked getrf at
/// threshold >= 1, threshold pivoting with diagonal preference below it
/// (blas::getf2_threshold).  Factor(k) passes the packed panel of block
/// column k; FactorDiag(k) passes the diagonal block, restricting the
/// pivot search to it.  When perturb_magnitude > 0, pivots below it are
/// bumped instead of reported singular (blas::PivotPerturbation).  The
/// factored block is scanned for non-finite values so overflow is caught at
/// the earliest task that observes it.
FactorResult factor_block(blas::MatrixView a, std::vector<int>& ipiv,
                          double threshold, double perturb_magnitude = 0.0);

/// Smallest nonzero |diagonal| of a factored block -- the accepted-pivot
/// magnitude feeding Factorization::min_pivot_ratio().  Returns +inf when
/// every diagonal entry is zero.
double min_diag_abs(blas::ConstMatrixView a);

/// Deferred pivoting (Update(k, j) step (a)): replays panel k's pivot
/// interchanges on block column j.  The swaps cross row-block boundaries;
/// the block-level George-Ng closure guarantees every touched row exists
/// in column j (core/numeric.h).  Only swapped rows are located, and
/// nothing is allocated.
void apply_panel_pivots(BlockMatrix& bm, const std::vector<int>& ipiv, int k,
                        int j);

/// Local pivoting (ComputeU step (a)): applies a diagonal block's local
/// interchanges (all indices inside the block) to one block of its row.
void apply_local_pivots(blas::MatrixView b, const std::vector<int>& ipiv);

/// U_kj := L_kk^{-1} B_kj (unit lower triangular solve; Update(k, j) step
/// (b) and the ComputeU body).
void solve_with_l(blas::ConstMatrixView lkk, blas::MatrixView ukj);

/// L_ik := B_ik U_kk^{-1} (upper triangular solve from the right; the
/// FactorL body).
void solve_with_u(blas::ConstMatrixView ukk, blas::MatrixView lik);

/// Whole-block Schur update B_ij -= L_ik U_kj with the engine given: the
/// hint must be the decision kAuto would have made (caller replays the
/// exported predicates, blas/level3.h).  Bitwise equal to
/// schur_update_rows over the structural rows of L_ik, which is what the
/// drivers run.
void schur_update(blas::ConstMatrixView lik, blas::ConstMatrixView ukj,
                  blas::MatrixView bij, blas::GemmEngine engine);

/// Row-exact Schur update (Update(k, j) step (c)): C(runs) -= L(runs) *
/// U_kj through blas::gemm_rows, where L is the L part of panel k and C is
/// block column j's buffer; rows of C outside the runs are not touched.
/// `engine` must be the decision kAuto would take for the runs' L blocks.
void schur_update_rows(blas::ConstMatrixView l, blas::ConstMatrixView ukj,
                       blas::MatrixView c, const blas::RowSpan* runs,
                       int nruns, blas::GemmEngine engine);

}  // namespace plu::kernels
