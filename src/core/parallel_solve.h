// Parallel triangular solves (step 4 of the paper's scheme).
//
// The sequential solve interleaves each panel's pivot interchanges with its
// elimination, which would serialize any two panels sharing a row block.
// For the parallel solver the accumulated pivot permutation is folded into
// one up-front row permutation instead (the eager-getrf form L U = Phat
// Apre), turning the forward pass into a pure lower solve whose
// cross-panel interactions are ADDITIVE gemv contributions:
//
//   forward task k:  y_K := L_kk^{-1} y_K, then  y[rows(t)] -= L_tk y_K
//   backward task k: y_K := U_kk^{-1} y_K, then  y[rows(i)] -= U_ik y_K
//
// Dependences are consumer edges only -- task t waits for every panel that
// contributes to t's own rows -- and concurrent additive contributions into
// a shared row block are serialized by per-block mutexes, so the result
// equals the sequential solve up to floating-point summation order (the
// DAG is as wide as the elimination forest, unlike the bitwise-exact
// chained variant this replaces, which was measured to be ~99% serial).
//
// Because the stored L lives at deferred-pivot positions, each panel's
// below-diagonal rows are mapped once, at construction, to their eager
// positions (the suffix composition of later panels' interchanges).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/numeric.h"

namespace plu {

class ParallelSolver {
 public:
  /// Precomputes the eager row maps and both solve DAGs.  The factorization
  /// must outlive the solver.
  explicit ParallelSolver(const Factorization& f);

  /// Solves A x = b on `threads` threads.  Agrees with f.solve(b) up to
  /// roundoff (contribution order is nondeterministic under threads > 1).
  /// Throws like f.solve(b): std::runtime_error on unusable factors,
  /// std::logic_error on a partial factorization, std::invalid_argument
  /// when b.size() != n.
  std::vector<double> solve(const std::vector<double>& b, int threads) const;

  /// DAG accessors for tests and benches (tasks are block-column indices).
  const std::vector<std::vector<int>>& forward_succ() const { return fwd_succ_; }
  const std::vector<int>& forward_indegree() const { return fwd_indeg_; }
  const std::vector<std::vector<int>>& backward_succ() const { return bwd_succ_; }
  const std::vector<int>& backward_indegree() const { return bwd_indeg_; }

  /// Per-task flop estimates (for simulating solve-phase scaling).
  std::vector<double> forward_flops() const;
  std::vector<double> backward_flops() const;

 private:
  const Factorization* f_;
  /// gather_[r] = row of the input rhs at eager position r: Phat and the
  /// analysis row permutation folded into one gather.
  std::vector<int> gather_;
  /// Per panel: eager global positions of its below-diagonal packed rows.
  std::vector<std::vector<int>> eager_rows_;
  std::vector<std::vector<int>> fwd_succ_;
  std::vector<int> fwd_indeg_;
  std::vector<std::vector<int>> bwd_succ_;
  std::vector<int> bwd_indeg_;
  mutable std::unique_ptr<std::vector<std::mutex>> row_locks_;
};

}  // namespace plu
