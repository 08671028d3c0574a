// BLAS level-3 subset: matrix-matrix kernels used by the supernodal
// factorization (gemm for Schur-complement updates, trsm for computing U
// panels from factored diagonal blocks).
//
// gemm is register/cache-blocked with two engines (GemmEngine); the
// textbook triple loop it is tested against lives in tests/gemm_reference.h.
#pragma once

#include "blas/dense.h"
#include "blas/level2.h"

namespace plu::blas {

enum class Side { Left, Right };

/// Which blocked-gemm engine to run.  kAuto reproduces the historical
/// routing (pack when gemm_pack_worthwhile AND gemm_b_dense_enough, with
/// the same short-circuit, else direct); kDirect/kPacked force an engine.
/// ROUTING CONTRACT: for a given (op(A), op(B), alpha, beta, C) both
/// engines produce bitwise-identical C -- each element C(i,j) is
/// accumulated over p in ascending order in both, and the order is
/// independent of how callers partition m (see DESIGN.md section 16).  So
/// a caller that forces the engine kAuto would have chosen (by replaying
/// the two exported predicates), or merges row-adjacent calls under one
/// forced engine, changes nothing but speed.
enum class GemmEngine { kAuto, kDirect, kPacked };

/// C := alpha * op(A) * op(B) + beta * C  (blocked engine).
void gemm(Trans transa, Trans transb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c);

/// Blocked gemm with an explicit engine choice (see GemmEngine contract).
void gemm(Trans transa, Trans transb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c, GemmEngine engine);

/// The two halves of the kAuto routing decision, exported so plan-driven
/// callers (core/driver.cpp tiled updates) can hoist the O(k*n) density
/// scan across gemms that share op(B) and still reproduce the auto
/// decision exactly.  pack_worthwhile: m*n*k >= tunables::kPackThreshold.
/// b_dense_enough: op(B) carries at most tunables::kPackMaxZeroFrac zeros.
bool gemm_pack_worthwhile(int m, int n, int k);
bool gemm_b_dense_enough(Trans transb, ConstMatrixView b, int k, int n);

/// One run of a row-restricted gemm: rows [a_row, a_row + rows) of A
/// update rows [c_row, c_row + rows) of C.
struct RowSpan {
  int a_row;
  int c_row;
  int rows;
};

/// Row-restricted gemm: C(runs) += alpha * A(runs) * B (no transposes,
/// beta = 1) for the given runs, which must not overlap in C; no other row
/// of C is read or written.  `engine` is kDirect or kPacked.  Each run's
/// rows come out bitwise equal to what gemm(..., engine) on the whole of A
/// and C would store there, since neither engine's per-element arithmetic
/// depends on how m is split; B is scanned once per batch of kMc rows,
/// however many runs the batch holds.
void gemm_rows(double alpha, ConstMatrixView a, ConstMatrixView b,
               MatrixView c, const RowSpan* runs, int nruns,
               GemmEngine engine);

/// Solve op(A) X = alpha B (Side::Left) or X op(A) = alpha B (Side::Right),
/// X overwrites B; A triangular per uplo/diag.
void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b);

/// Always true: the blocked kernels are the only kernels.  Kept only for
/// perfbench/traced.cpp, which still reads it (like the rt::Team shims).
inline constexpr bool use_blocked_kernels() { return true; }

/// Flop counts for the cost model (multiply-add counted as 2 flops).
double gemm_flops(int m, int n, int k);
double trsm_flops(Side side, int m, int n);
double getrf_flops(int m, int n);

}  // namespace plu::blas
