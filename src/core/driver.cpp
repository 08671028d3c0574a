#include "core/driver.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "blas/dense.h"
#include "core/kernels.h"
#include "core/numeric.h"
#include "runtime/dag_executor.h"

namespace plu {

const char* to_string(Layout layout) {
  return layout == Layout::k2D ? "2d" : "1d";
}

const char* to_string(FactorStatus s) {
  switch (s) {
    case FactorStatus::kOk:
      return "ok";
    case FactorStatus::kPerturbed:
      return "perturbed";
    case FactorStatus::kSingular:
      return "singular";
    case FactorStatus::kOverflow:
      return "overflow";
    case FactorStatus::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

namespace {

/// State shared by both per-run task dispatchers: pivot/elision counters,
/// the min-accepted-pivot fold, and the optional per-block-column mutexes.
class RunState {
 public:
  RunState(NumericRun& run, bool take_locks)
      : run_(run) {
    if (take_locks) {
      locks_ = std::make_unique<std::vector<std::mutex>>(
          run.an.blocks.num_blocks());
    }
  }

  void finish() {
    run_.zero_pivots = zero_pivots_.load();
    run_.lazy_skipped = lazy_skipped_.load();
    run_.blocking.ran = run_.plan != nullptr;
    run_.blocking.tile_runs = tile_runs_.load();
    run_.blocking.gemms_fused = gemms_fused_.load();
    run_.blocking.routed_packed = routed_packed_.load();
    run_.blocking.routed_direct = routed_direct_.load();
    run_.blocking.scans_elided = scans_elided_.load();
    {
      std::lock_guard<std::mutex> lock(min_pivot_mu_);
      run_.min_pivot = min_pivot_;
    }
    std::lock_guard<std::mutex> lock(fail_mu_);
    std::sort(perturbed_.begin(), perturbed_.end());
    run_.perturbed_columns = std::move(perturbed_);
    if (fail_col_ >= 0) {
      run_.status = fail_status_;
      run_.failed_column = fail_col_;
    } else {
      run_.status = run_.perturbed_columns.empty() ? FactorStatus::kOk
                                                   : FactorStatus::kPerturbed;
      run_.failed_column = -1;
    }
  }

  /// Token the executors watch: the first observed breakdown cancels it, so
  /// the remaining tasks drain without running (runtime/dag_executor.h).
  rt::CancelToken* cancel() { return &cancel_; }

 protected:
  std::unique_lock<std::mutex> maybe_lock(int column) {
    if (!locks_) return {};
    return std::unique_lock<std::mutex>((*locks_)[column]);
  }

  /// Records a breakdown at global column `col` and cancels the run.  When
  /// several in-flight factor tasks break down concurrently, the smallest
  /// column wins (and, at equal columns, the first reporter).
  void fail(int col, FactorStatus status) {
    {
      std::lock_guard<std::mutex> lock(fail_mu_);
      if (fail_col_ < 0 || col < fail_col_) {
        fail_col_ = col;
        fail_status_ = status;
      }
    }
    cancel_.cancel();
  }

  /// Folds one block-factor outcome into the run-wide status.  `col0` is
  /// the global column of the block's first panel column, so breakdown and
  /// perturbation positions are reported in matrix coordinates.
  void count_factor(const kernels::FactorResult& r, int col0,
                    double min_diag) {
    {
      std::lock_guard<std::mutex> lock(min_pivot_mu_);
      min_pivot_ = std::min(min_pivot_, min_diag);
    }
    if (!r.perturbed.empty()) {
      std::lock_guard<std::mutex> lock(fail_mu_);
      for (int c : r.perturbed) perturbed_.push_back(col0 + c);
    }
    if (r.info != 0) {
      zero_pivots_.fetch_add(1, std::memory_order_relaxed);
      fail(col0 + r.info - 1, FactorStatus::kSingular);
    }
    if (r.first_nonfinite >= 0) {
      fail(col0 + r.first_nonfinite, FactorStatus::kOverflow);
    }
  }

  void count_lazy_skip() {
    lazy_skipped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// One dispatched tile run: `fused` is the number of per-block gemms the
  /// run merged away (0 for a single-tile run).  kAuto means the scalar
  /// reference arm ran (no engine routing happened).
  void count_tile_run(blas::GemmEngine engine, int fused) {
    tile_runs_.fetch_add(1, std::memory_order_relaxed);
    if (fused > 0) gemms_fused_.fetch_add(fused, std::memory_order_relaxed);
    if (engine == blas::GemmEngine::kPacked) {
      routed_packed_.fetch_add(1, std::memory_order_relaxed);
    } else if (engine == blas::GemmEngine::kDirect) {
      routed_direct_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void count_scans_elided(int n) {
    scans_elided_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Block (i, j) as a checker resource id.
  long resource(int i, int j) const {
    return static_cast<long>(i) * run_.an.blocks.num_blocks() + j;
  }

  void record_read(int id, int i, int j) {
    run_.checker->read(id, resource(i, j));
  }

  /// The kernels write block (i, j) while holding column j's mutex when
  /// locks are on; tell the checker which lock so same-column serialized
  /// (entry-disjoint or commuting) writes are not misreported.
  void record_write(int id, int i, int j) {
    if (locks_) {
      run_.checker->locked_write(id, resource(i, j), j);
    } else {
      run_.checker->write(id, resource(i, j));
    }
  }

  /// A write performed without taking any lock (the 2-D tasks other than
  /// UpdateBlock -- the graph alone orders all access to their blocks).
  void record_unlocked_write(int id, int i, int j) {
    run_.checker->write(id, resource(i, j));
  }

  NumericRun& run_;
  std::unique_ptr<std::vector<std::mutex>> locks_;

 private:
  std::atomic<int> zero_pivots_{0};
  std::atomic<long> lazy_skipped_{0};
  std::atomic<long> tile_runs_{0};
  std::atomic<long> gemms_fused_{0};
  std::atomic<long> routed_packed_{0};
  std::atomic<long> routed_direct_{0};
  std::atomic<long> scans_elided_{0};
  std::mutex min_pivot_mu_;
  double min_pivot_ = std::numeric_limits<double>::infinity();
  rt::CancelToken cancel_;
  std::mutex fail_mu_;
  int fail_col_ = -1;
  FactorStatus fail_status_ = FactorStatus::kOk;
  std::vector<int> perturbed_;
};

/// 1-D dispatcher: Factor(k) / Update(k, j) bodies over the packed panels,
/// kernels from core/kernels.h.
class Run1D : public RunState {
 public:
  Run1D(NumericRun& run, const NumericOptions& opt)
      // Lock-free execution is only honored when the analysis proved the
      // unordered updates' block footprints disjoint (symbolic/blocks.h).
      : RunState(run, opt.use_column_locks || !run.an.blocks.lockfree_safe),
        lazy_(opt.lazy_updates), threshold_(opt.pivot_threshold) {}

  void run_task(int id) {
    const taskgraph::Task& t = run_.graph.tasks.task(id);
    if (t.kind == taskgraph::TaskKind::kFactor) {
      factor(t.k);
    } else {
      update(t.k, t.j);
    }
  }

  void factor(int k) {
    const Analysis& an = run_.an;
    if (run_.checker) {
      // Footprint (Theorem 4 bookkeeping): Factor(k) rewrites the packed
      // panel of block column k -- the diagonal block and every L row
      // block -- and touches nothing else.
      const int id = run_.graph.tasks.factor_id(k);
      record_write(id, k, k);
      for (int t : an.blocks.l_blocks(k)) record_write(id, t, k);
    }
    std::unique_lock<std::mutex> lock = maybe_lock(k);
    blas::MatrixView p = run_.blocks.panel(k);
    kernels::FactorResult r = kernels::factor_block(
        p, run_.ipiv[k], threshold_, run_.perturb_magnitude);
    const int wk = an.blocks.part.width(k);
    count_factor(r, an.blocks.part.first(k),
                 kernels::min_diag_abs(p.block(0, 0, wk, wk)));
  }

  void update(int k, int j) {
    const Analysis& an = run_.an;
    const symbolic::ColumnPlan* cp =
        run_.plan != nullptr ? &run_.plan->columns[k] : nullptr;
    if (run_.checker) {
      // Update(k, j) reads panel k (L blocks + ipiv via the diagonal
      // block) and writes the panel-k row blocks of block column j: the
      // pivot replay swaps rows inside blocks (k, j) and (t, j), the trsm
      // rewrites (k, j), the gemms rewrite each (t, j).  These are exactly
      // the pivot-candidate row blocks Theorem 4 proves disjoint across
      // independent subtrees.  Footprints stay at the ORIGINAL block
      // granularity even when the plan coalesces tiles: a fused gemm
      // writes exactly the union of its member blocks, no more.
      const int id = run_.graph.tasks.update_id(k, j);
      record_read(id, k, k);
      record_write(id, k, j);
      std::vector<int> tmp;
      const std::vector<int>* lblk = &tmp;
      if (cp != nullptr) {
        lblk = &cp->l_list;
      } else {
        tmp = an.blocks.l_blocks(k);
      }
      for (int t : *lblk) {
        record_read(id, t, k);
        record_write(id, t, j);
      }
    }
    std::unique_lock<std::mutex> lock = maybe_lock(j);
    // (a) deferred pivoting: panel-k row swaps replayed on block column j.
    kernels::apply_panel_pivots(run_.blocks, run_.ipiv[k], k, j);
    // LazyS+ elision: pivoting has been replayed (the swaps move other
    // blocks of the column too), but a numerically zero B_kj produces a
    // zero U_kj and zero Schur contributions -- skip the arithmetic.
    if (lazy_ && blas::max_abs(run_.blocks.block(k, j)) == 0.0) {
      count_lazy_skip();
      return;
    }
    // (b) U_kj = L_kk^{-1} B_kj (unit lower triangular solve).
    const int wk = an.blocks.part.width(k);
    blas::ConstMatrixView panel_k = run_.blocks.panel(k);
    blas::MatrixView ukj = run_.blocks.block(k, j);
    kernels::solve_with_l(panel_k.block(0, 0, wk, wk), ukj);
    // (c) Schur updates: B_tj -= L_tk * U_kj for every L row block t.
    blas::ConstMatrixView ukj_c = ukj;
    if (cp == nullptr) {
      int off = wk;
      for (int t : an.blocks.l_blocks(k)) {
        const int wt = an.blocks.part.width(t);
        kernels::schur_update(panel_k.block(off, 0, wt, wk), ukj_c,
                              run_.blocks.block(t, j));
        off += wt;
      }
      return;
    }
    schur_update_tiled(an, *cp, k, j, panel_k, ukj_c, wk);
  }

 private:
  /// Plan-driven Schur sweep: replays gemm's auto routing per tile with
  /// the O(k*n) density scan of op(B) = U_kj hoisted out of the loop
  /// (every tile's gemm shares it), then coalesces maximal runs of
  /// adjacent same-decision tiles whose targets are contiguous in block
  /// column j's buffer into single tall gemms with the engine forced.
  /// Bitwise identical to the per-block loop: every engine accumulates
  /// each C element over p in ascending order independent of how m is
  /// partitioned, and the forced engine IS the auto decision (DESIGN.md
  /// section 16).
  void schur_update_tiled(const Analysis& an, const symbolic::ColumnPlan& cp,
                          int k, int j, blas::ConstMatrixView panel_k,
                          blas::ConstMatrixView ukj_c, int wk) {
    const int nb = static_cast<int>(cp.l_list.size());
    if (nb == 0) return;
    const int wj = an.blocks.part.width(j);
    const bool blocked = blas::use_blocked_kernels();
    // Hoisted density scan, with gemm's short-circuit preserved: the scan
    // runs only when at least one tile crosses the size threshold (below
    // it gemm never scans, so neither do we).
    int scans_wanted = 0;
    bool bdense = false;
    if (blocked) {
      for (int t = 0; t < nb; ++t) {
        scans_wanted += blas::gemm_pack_worthwhile(
            an.blocks.part.width(cp.l_list[t]), wj, wk);
      }
      if (scans_wanted > 0) {
        bdense = blas::gemm_b_dense_enough(blas::Trans::No, ukj_c, wk, wj);
        if (scans_wanted > 1) count_scans_elided(scans_wanted - 1);
      }
    }
    const auto engine_of = [&](int t) {
      if (!blocked) return blas::GemmEngine::kAuto;  // reference arm: unused
      return blas::gemm_pack_worthwhile(an.blocks.part.width(cp.l_list[t]),
                                        wj, wk) &&
                     bdense
                 ? blas::GemmEngine::kPacked
                 : blas::GemmEngine::kDirect;
    };
    blas::MatrixView colj = run_.blocks.column(j);
    int t = 0;
    while (t < nb) {
      const blas::GemmEngine eng = engine_of(t);
      const int tgt0 = run_.blocks.block_offset(cp.l_list[t], j);
      int tgt_end = tgt0 + an.blocks.part.width(cp.l_list[t]);
      int e = t + 1;
      while (e < nb && engine_of(e) == eng &&
             run_.blocks.block_offset(cp.l_list[e], j) == tgt_end) {
        tgt_end += an.blocks.part.width(cp.l_list[e]);
        ++e;
      }
      const int run_rows = cp.l_offset[e] - cp.l_offset[t];
      kernels::schur_update(
          panel_k.block(wk + cp.l_offset[t], 0, run_rows, wk), ukj_c,
          colj.block(tgt0, 0, run_rows, wj), eng);
      count_tile_run(eng, e - t - 1);
      t = e;
    }
  }

  const bool lazy_;
  const double threshold_;
};

/// 2-D dispatcher: FactorDiag / FactorL / ComputeU / UpdateBlock bodies per
/// block, same kernels.  Pivoting is restricted to the diagonal block (the
/// price of 2-D distribution); rows outside it stay unpermuted.
class Run2D : public RunState {
 public:
  Run2D(NumericRun& run, const NumericOptions& opt)
      // Additive UpdateBlock gemms into one block commute but their memory
      // writes must not interleave: serialize per target block column
      // unless the graph already chains them (the S* kinds) and the caller
      // opted out of locks.
      : RunState(run, opt.use_column_locks ||
                          run.graph.kind == taskgraph::GraphKind::kEforest),
        lazy_(opt.lazy_updates), threshold_(opt.pivot_threshold) {}

  void run_task(int id) {
    const taskgraph::Task& t = run_.graph.tasks.task(id);
    switch (t.kind) {
      case taskgraph::TaskKind::kFactorDiag: {
        if (run_.checker) record_unlocked_write(id, t.k, t.k);
        blas::MatrixView d = run_.blocks.block(t.k, t.k);
        kernels::FactorResult r = kernels::factor_block(
            d, run_.ipiv[t.k], threshold_, run_.perturb_magnitude);
        count_factor(r, run_.an.blocks.part.first(t.k),
                     kernels::min_diag_abs(d));
        break;
      }
      case taskgraph::TaskKind::kComputeU: {
        if (run_.checker) {
          record_read(id, t.k, t.k);
          record_unlocked_write(id, t.k, t.j);
        }
        blas::MatrixView ukj = run_.blocks.block(t.k, t.j);
        kernels::apply_local_pivots(ukj, run_.ipiv[t.k]);
        if (lazy_ && blas::max_abs(ukj) == 0.0) {
          count_lazy_skip();
          break;
        }
        kernels::solve_with_l(run_.blocks.block(t.k, t.k), ukj);
        break;
      }
      case taskgraph::TaskKind::kFactorL: {
        if (run_.checker) {
          record_read(id, t.k, t.k);
          record_unlocked_write(id, t.i, t.k);
        }
        kernels::solve_with_u(run_.blocks.block(t.k, t.k),
                              run_.blocks.block(t.i, t.k));
        break;
      }
      case taskgraph::TaskKind::kUpdateBlock: {
        blas::ConstMatrixView lik = run_.blocks.block(t.i, t.k);
        blas::ConstMatrixView ukj = run_.blocks.block(t.k, t.j);
        if (run_.checker) {
          record_read(id, t.i, t.k);
          record_read(id, t.k, t.j);
          record_write(id, t.i, t.j);
        }
        // Operand reads are ordered by the graph's FL/CU edges; a zero
        // operand contributes nothing (LazyS+ at block granularity).
        if (lazy_ && (blas::max_abs(lik) == 0.0 || blas::max_abs(ukj) == 0.0)) {
          count_lazy_skip();
          break;
        }
        std::unique_lock<std::mutex> lock = maybe_lock(t.j);
        if (run_.plan == nullptr) {
          kernels::schur_update(lik, ukj, run_.blocks.block(t.i, t.j));
          break;
        }
        // Plan-driven routing at block granularity: replay gemm's auto
        // decision (same predicates, same short-circuit -- the scan only
        // runs past the size threshold) so the forced engine is exactly
        // what kAuto would pick, and count it for the report.  No tiles
        // to fuse here; per-block tasks are the 2-D layout's granularity.
        blas::GemmEngine eng = blas::GemmEngine::kAuto;
        if (blas::use_blocked_kernels()) {
          eng = blas::gemm_pack_worthwhile(lik.rows, ukj.cols, lik.cols) &&
                        blas::gemm_b_dense_enough(blas::Trans::No, ukj,
                                                  lik.cols, ukj.cols)
                    ? blas::GemmEngine::kPacked
                    : blas::GemmEngine::kDirect;
        }
        kernels::schur_update(lik, ukj, run_.blocks.block(t.i, t.j), eng);
        count_tile_run(eng, 0);
        break;
      }
      default:
        throw std::logic_error("2-D driver: column-granularity task");
    }
  }

 private:
  const bool lazy_;
  const double threshold_;
};

/// Shared mode dispatch: a sequential right-looking stage loop (also the
/// partial/Schur mode), a topological-order replay, or the DAG runtime
/// (optionally schedule-fuzzed).  `dispatch` runs one task id.
template <typename Dispatch>
void execute(NumericRun& run, const NumericOptions& opt,
             rt::CancelToken* token, Dispatch&& dispatch) {
  const int nb = run.an.blocks.num_blocks();
  // External cancellation (a service deadline or client abort) propagates
  // into the run token at task granularity: the first task to observe the
  // tripped external token cancels the run, and from then on every executor
  // drains the remaining tasks unrun.  The run token stays the single token
  // the executors watch, so breakdown cancellation is unchanged.
  rt::CancelToken* const ext = opt.cancel;
  const auto polled = [&](int id) {
    if (ext != nullptr && ext->cancelled()) {
      token->cancel();
      return;
    }
    dispatch(id);
  };
  // Sequential modes honor the same cancellation contract as the threaded
  // executors: once a factor task reports a breakdown the remaining tasks
  // are skipped, so a later panel never divides by a zero pivot.
  const auto guarded = [&](int id) {
    if (!token->cancelled()) polled(id);
  };
  const auto stage_loop = [&](int stages) {
    for (int k = 0; k < stages && !token->cancelled(); ++k) {
      guarded(run.graph.tasks.factor_id(k));
      auto [b, e] = run.graph.tasks.stage_range(k);
      for (int id = b; id < e; ++id) guarded(id);
    }
  };
  if (run.stages < nb) {
    // Partial factorization (Schur-complement mode) is sequential by
    // definition: the right-looking sweep stops mid-way.
    stage_loop(run.stages);
    return;
  }
  switch (opt.mode) {
    case ExecutionMode::kSequential:
      // Right-looking, no task graph: factor each stage, then push its
      // solves and updates.  This is the correctness baseline.
      stage_loop(nb);
      break;
    case ExecutionMode::kGraphSequential: {
      rt::ExecutionReport rep = rt::execute_sequential(run.graph, guarded);
      if (!rep.completed) {
        throw std::logic_error("Factorization: task graph is cyclic");
      }
      break;
    }
    case ExecutionMode::kThreaded: {
      rt::FuzzOptions fuzz;
      fuzz.seed = opt.fuzz_seed;
      fuzz.max_delay_us = opt.fuzz_max_delay_us;
      rt::ExecOptions eopt;
      eopt.cancel = token;
      eopt.shared = opt.shared_runtime;
      eopt.request_priority = opt.request_priority;
      eopt.fuzz = opt.fuzz_schedule ? &fuzz : nullptr;
      taskgraph::CoarseGraph cg;
      if (opt.coarsen) {
        taskgraph::CoarsenOptions copt;
        copt.threads = opt.threads;
        copt.threshold_flops = opt.coarsen_threshold_flops;
        copt.plan = run.plan;
        cg = taskgraph::coarsen_task_graph(run.graph, run.an.blocks, copt);
        run.coarsen = cg.stats(run.graph);
      }
      rt::ExecutionReport rep;
      if (cg.coarsened) {
        // A fused group runs its member tasks in sequential right-looking
        // order; `guarded` keeps the per-task cancellation drain, so a
        // breakdown inside a group skips the group's remaining members just
        // as the executor skips the remaining groups.
        const auto run_group = [&](int gid) {
          for (int id : cg.members[gid]) guarded(id);
        };
        eopt.priorities = &cg.priorities;
        rep = rt::execute_dag(cg.succ, cg.indegree, opt.threads, run_group,
                              eopt);
      } else {
        rep = rt::execute_task_graph(run.graph, opt.threads, polled, eopt);
      }
      if (!rep.completed && !rep.cancelled) {
        throw std::logic_error("Factorization: threaded execution incomplete");
      }
      break;
    }
  }
}

/// External-cancellation fold, applied AFTER RunState::finish(): a run
/// whose token tripped without any recorded breakdown was stopped from
/// outside (NumericOptions::cancel) and reports kCancelled -- the factors
/// are incomplete, and leaving kOk would let a solve read them.  The RUN
/// token is the witness, not the external one: an external cancel that
/// lands only after every task already ran never propagated into the run,
/// and the complete factorization stays usable.  A breakdown observed
/// before the abort wins (more informative; equally unusable factors).
void fold_external_cancel(NumericRun& run, rt::CancelToken* run_token) {
  if (run_token->cancelled() && factor_usable(run.status)) {
    run.status = FactorStatus::kCancelled;
    run.failed_column = -1;
  }
}

class Driver1D final : public NumericDriver {
 public:
  Layout layout() const override { return Layout::k1D; }
  const char* name() const override { return "1d-column"; }
  void factorize(NumericRun& run, const NumericOptions& opt) const override {
    Run1D state(run, opt);
    execute(run, opt, state.cancel(), [&](int id) { state.run_task(id); });
    state.finish();
    fold_external_cancel(run, state.cancel());
  }
};

class Driver2D final : public NumericDriver {
 public:
  Layout layout() const override { return Layout::k2D; }
  const char* name() const override { return "2d-block"; }
  void factorize(NumericRun& run, const NumericOptions& opt) const override {
    Run2D state(run, opt);
    execute(run, opt, state.cancel(), [&](int id) { state.run_task(id); });
    state.finish();
    fold_external_cancel(run, state.cancel());
  }
};

}  // namespace

const NumericDriver& NumericDriver::driver_for(Layout layout) {
  static const Driver1D d1;
  static const Driver2D d2;
  if (layout == Layout::k2D) return d2;
  return d1;
}

}  // namespace plu
