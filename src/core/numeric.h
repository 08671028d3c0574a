// Numeric factorization (step 3): executes the factorization tasks over
// the dense-block storage, at either layout (Options::layout), producing
// one layout-tagged result type.  The work is split across three tiers:
// the task BODIES live in core/kernels.h (one translation unit for panel
// getrf, pivot application, trsm, additive gemm), the dependence graphs in
// taskgraph/build.h, and the per-layout enumeration/dispatch loops behind
// the NumericDriver interface (core/driver.h); this class assembles a run
// and hands it to the driver the analysis' layout selects.
//
// 1-D kernels (Section 4's task bodies):
//   Factor(k):    getrf with partial pivoting on the packed panel of block
//                 column k (diagonal block + L row blocks); the local pivot
//                 sequence ipiv_k is recorded, not applied globally.
//   Update(k,j):  (a) apply ipiv_k to the panel-k rows of block column j
//                 (deferred pivoting), (b) trsm L_kk * U_kj = B_kj,
//                 (c) gemm B_tj -= L_tk * U_kj on the structural rows of
//                 every L row block t (symbolic::ColumnPlan::row_runs).
//
// 2-D kernels (the S+ 2.0 scheme; pivoting RESTRICTED to each diagonal
// block -- numerically weaker, watch min_pivot_ratio()):
//   FactorDiag(k):      getrf with block-local pivoting on B_kk;
//   ComputeU(k,j):      U_kj := L_kk^{-1} P_k B_kj;
//   FactorL(i,k):       L_ik := B_ik U_kk^{-1}  (rows stay unpermuted);
//   UpdateBlock(i,k,j): B_ij -= L_ik U_kj.
//
// Every solve path below is layout-agnostic: the 2-D local pivot sequences
// are a special case of the 1-D panel sequences (every index inside the
// diagonal block), so the same interchange replay, triangular passes and
// elimination-operator transpose logic serve both.
//
// Why deferred pivoting is safe here: the block-level George-Ng closure
// (symbolic/blocks.h) makes all pivot-candidate row blocks of a column share
// one block-row structure, so every row ipiv_k touches exists in every block
// column j with Update(k,j).  Why unordered independent-subtree updates are
// safe without any lock: each update writes only the diagonal rows of its
// own block and the structural L rows of its panel, the static structure
// keeps every other row of the panel exactly zero (so skipping it changes no
// stored bit), and Theorem 2 row by row makes the writers of each scalar row
// an eforest chain -- checked at analysis (row_writer_chain_violations,
// symbolic/repartition.h).  Updates left unordered by Theorem 4 therefore
// touch disjoint rows, their swaps included; the same holds per block for
// the 2-D UpdateBlocks.
#pragma once

#include <cstdint>
#include <vector>

#include "core/analysis.h"
#include "core/block_storage.h"
#include "core/layout.h"
#include "core/status.h"
#include "runtime/dag_executor.h"
#include "runtime/race_checker.h"

namespace plu {

enum class ExecutionMode {
  kSequential,       // right-looking loop, no task graph involved
  kGraphSequential,  // single thread, tasks in a topological order of the graph
  kThreaded,         // DAG executor on a thread pool
};

struct NumericOptions {
  ExecutionMode mode = ExecutionMode::kSequential;
  int threads = 4;
  /// Run the kThreaded task graph on this persistent multi-DAG pool
  /// (runtime/shared_runtime.h) instead of a private worker team, so
  /// factorizations of DIFFERENT matrices -- distinct Factorization /
  /// SparseLU instances, or solver-service requests -- interleave on one
  /// set of workers.  `threads` is then ignored.  The pool
  /// must outlive the factorize call; non-owning.
  rt::SharedRuntime* shared_runtime = nullptr;
  /// Per-request priority fold for the shared pool
  /// (rt::ExecOptions::request_priority); ignored without shared_runtime.
  double request_priority = 0.0;
  /// Optional EXTERNAL cancellation (deadline / client abort): when this
  /// token trips, in-flight tasks finish, the remaining tasks drain unrun,
  /// and -- unless a numeric breakdown was already recorded -- the
  /// factorization reports FactorStatus::kCancelled (unusable factors, but
  /// a clean, reusable runtime).  Works in every execution mode; checked at
  /// task granularity.  Non-owning; must outlive the factorize call.
  rt::CancelToken* cancel = nullptr;
  /// LazyS+-style zero-block elision (the paper's "recent developments show
  /// that some of the zero blocks can be eliminated from the computation"):
  /// Update(k, j) still replays the pivot interchanges, but skips the trsm
  /// and gemms when the U block is numerically all zero at that point.
  bool lazy_updates = false;
  /// Threshold pivoting with diagonal preference: the diagonal entry stays
  /// the pivot when |a_jj| >= pivot_threshold * max|column|.  1.0 is plain
  /// partial pivoting; smaller values trade a bounded growth factor for
  /// fewer interchanges -- the intended companion of
  /// Options::scale_and_permute, whose big diagonal then rarely loses.
  double pivot_threshold = 1.0;
  /// Partial factorization: stop after this many block columns (-1 = all).
  /// The trailing blocks then hold the SCHUR COMPLEMENT of the factored
  /// leading part (right-looking updates have already been applied); use
  /// Factorization::schur_complement() to extract it.  A partial
  /// factorization cannot solve().  Runs sequentially.
  int stop_after_block = -1;
  /// Record per-task block read/write footprints while the tasks run and
  /// cross-check every unordered task pair against the transitive
  /// dependence relation afterwards (rt::RaceChecker -- the dynamic
  /// verification of Theorem 4).  Results in Factorization::races().
  /// Works in every execution mode; kThreaded exercises real interleavings.
  bool check_races = false;
  /// Fuzz the kThreaded schedule (rt::ExecOptions::fuzz): a seeded random
  /// pick among the ready tasks instead of the priority order, plus
  /// injected delays, so repeated runs with different seeds explore many
  /// legal interleavings instead of the one the priorities produce.
  bool fuzz_schedule = false;
  std::uint64_t fuzz_seed = 1;
  /// Maximum injected pre-task delay (microseconds) when fuzzing.
  int fuzz_max_delay_us = 50;
  /// Static pivot perturbation (the SuperLU_DIST recovery for the static
  /// symbolic factorization): a pivot with |p| < sqrt(eps) * max|A| is
  /// bumped to that magnitude (sign preserved) instead of stopping the run
  /// with FactorStatus::kSingular.  The factorization then completes with
  /// status kPerturbed and Factorization::perturbed_columns() lists the
  /// bumped columns; pair with refined_solve (core/refine.h) to recover the
  /// accuracy the perturbation gave up.
  bool perturb_pivots = false;
};

/// One factorization of an analyzed pattern, owning its block storage.
///
/// Run path: the constructor allocates the storage (its first-touch fill is
/// the only zeroing a fresh slab gets) and refactor() zeroes the same slab
/// once; both then run one private body -- scatter the values through the
/// analysis' slots (Analysis::input_slots; a different pattern gets its own
/// from scatter_slots()), run the layout's driver, and make one scan of
/// the factors for pivot growth and overflow.  A refactorization therefore
/// costs the numeric tasks plus one fill, one scatter and one scan, and its
/// results are bitwise equal to a fresh Factorization's wherever the run is
/// deterministic.
class Factorization {
 public:
  /// Factorizes `a` (original ordering; permuted internally) over the given
  /// analysis.  `analysis` must outlive the Factorization.
  Factorization(const Analysis& analysis, const CscMatrix& a,
                const NumericOptions& opt = {});

  /// Factorizes new values in place: same analysis, same block storage
  /// (references to blocks() stay valid), every per-run result reset.  `a`
  /// may carry a sub-pattern of the analyzed one; an entry outside the block
  /// pattern throws std::invalid_argument.  After any throw the status is
  /// kCancelled: the factors are unusable.
  void refactor(const CscMatrix& a, const NumericOptions& opt = {});

  const Analysis& analysis() const { return *analysis_; }
  const BlockMatrix& blocks() const { return blocks_; }
  BlockMatrix& blocks() { return blocks_; }
  const std::vector<int>& panel_ipiv(int k) const { return ipiv_[k]; }

  /// Which numeric layout ran (from Options::layout).
  Layout layout() const { return layout_; }
  /// NumericDriver::name() of the driver that ran ("1d-column" /
  /// "2d-block"), for reports.
  const char* driver_name() const;
  /// The dependence graph the run executed: Analysis::graph for the 1-D
  /// layout, Analysis::block_graph for the 2-D layout.
  const taskgraph::TaskGraph& task_graph() const;

  /// Breakdown status of the run (core/status.h).  On kSingular /
  /// kOverflow the remaining tasks were cancelled cooperatively and the
  /// solve paths throw std::runtime_error; check this (or SparseLU's
  /// factor_status()) before trusting the factors.
  FactorStatus status() const { return status_; }
  /// Global column of the breakdown (-1 when status() is kOk/kPerturbed):
  /// the smallest column among the breakdowns the run observed.
  int failed_column() const { return failed_column_; }
  /// Columns whose pivot was bumped to the static perturbation magnitude
  /// (empty unless NumericOptions::perturb_pivots; sorted).
  const std::vector<int>& perturbed_columns() const {
    return perturbed_columns_;
  }
  /// The perturbation magnitude used (sqrt(eps) * max|A|, or 0 when
  /// perturbation was off).
  double perturbation_magnitude() const { return perturb_magnitude_; }
  /// Pivot growth max|L,U entry| / max|A entry| over the loaded
  /// (scaled+permuted) matrix -- the classic stability indicator; large
  /// growth means the backward error bound is weak and refinement is
  /// advisable.
  double growth_factor() const { return growth_factor_; }

  bool singular() const {
    return status_ == FactorStatus::kSingular || zero_pivots_ > 0;
  }
  int zero_pivots() const { return zero_pivots_; }

  /// Smallest |pivot| accepted, relative to the matrix max-abs; a crude
  /// stability indicator.  Partial pivoting keeps it moderate; the 2-D
  /// layout's block-restricted pivoting can drive it tiny (pair with
  /// iterative refinement).
  double min_pivot_ratio() const { return min_pivot_ratio_; }

  /// Updates elided by LazyS+ zero-block detection (0 unless
  /// NumericOptions::lazy_updates was set).
  long lazy_skipped_updates() const { return lazy_skipped_; }

  /// Footprint races found by the checker (always empty unless
  /// NumericOptions::check_races was set; empty then too when the task
  /// graph correctly orders every conflicting pair -- the Theorem 4 claim).
  const std::vector<rt::FootprintRace>& races() const { return races_; }
  bool race_checked() const { return race_checked_; }

  /// Row interchanges actually performed across all panels (ipiv entries
  /// that moved a row).  MC64 preprocessing plus threshold pivoting drives
  /// this toward zero.
  long pivot_interchanges() const;

  /// Solves A x = b (original ordering).  b.size() == n.  The n x 1 case
  /// of solve_matrix, so bitwise equal to it at one right-hand side.
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves A^T x = b (original ordering).
  std::vector<double> solve_transpose(const std::vector<double>& b) const;

  /// Multi-right-hand-side solve: B is n x nrhs column-major; the result
  /// overwrites X (same shape).  One panel walk for all columns; its
  /// updates run gemv at nrhs = 1 and gemm above (the left trsm is one
  /// trsv per column).
  void solve_matrix(blas::ConstMatrixView b, blas::MatrixView x) const;

  /// Throws std::runtime_error unless factor_usable(status()); `what` names
  /// the caller in the message.
  void require_usable(const char* what) const;

  /// True when NumericOptions::stop_after_block cut the factorization short.
  bool partial() const { return factored_blocks_ < analysis_->blocks.num_blocks(); }
  int factored_blocks() const { return factored_blocks_; }

  /// Dense Schur complement of the trailing (unfactored) block columns with
  /// respect to the factored leading part; requires partial().  Rows and
  /// columns are the trailing columns of the analysis ordering, with the
  /// leading panels' pivot interchanges already folded in.
  blas::DenseMatrix schur_complement() const;

  /// Row-run routing counters of the run (symbolic/repartition.h).
  const symbolic::BlockingStats& blocking_stats() const {
    return blocking_stats_;
  }

 private:
  friend class NumericDriver;

  /// The run body shared by the constructor and refactor(); expects zeroed
  /// storage.
  void run(const CscMatrix& a, const NumericOptions& opt);

  const Analysis* analysis_;
  BlockMatrix blocks_;
  Layout layout_ = Layout::k1D;
  std::vector<std::vector<int>> ipiv_;
  double min_pivot_ratio_ = 0.0;
  int zero_pivots_ = 0;
  long lazy_skipped_ = 0;
  int factored_blocks_ = 0;
  std::vector<rt::FootprintRace> races_;
  bool race_checked_ = false;
  FactorStatus status_ = FactorStatus::kOk;
  int failed_column_ = -1;
  std::vector<int> perturbed_columns_;
  double perturb_magnitude_ = 0.0;
  double growth_factor_ = 0.0;
  symbolic::BlockingStats blocking_stats_;
};

/// Relative residual ||Ax - b||_inf / (||A||_inf ||x||_inf + ||b||_inf).
double relative_residual(const CscMatrix& a, const std::vector<double>& x,
                         const std::vector<double>& b);

/// Componentwise (Oettli-Prager) backward error
///   max_i |b - Ax|_i / (|A| |x| + |b|)_i,
/// skipping rows whose denominator is exactly zero.  The sharpest standard
/// measure of solve quality: ~eps means x is the exact solution of a
/// componentwise-tiny perturbation of (A, b) -- the target iterative
/// refinement drives a perturbed factorization back to.
double componentwise_backward_error(const CscMatrix& a,
                                    const std::vector<double>& x,
                                    const std::vector<double>& b);

}  // namespace plu
