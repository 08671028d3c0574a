#include "core/driver.h"

#include <algorithm>
#include <atomic>
#include <limits>
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

/// State shared by both per-run task dispatchers: pivot/elision counters
/// and the per-column factor outcomes, folded once the run is over.  No
/// task body takes a lock: the task graph alone orders every pair of tasks
/// that touch one entry (row runs in 1-D, per-block writer chains in 2-D),
/// each factor task owns its outcome slot, and the counters are atomic.
class RunState {
 public:
  explicit RunState(NumericRun& run)
      : run_(run), outcome_(run.an.blocks.num_blocks()) {}

  void finish() {
    run_.lazy_skipped = lazy_skipped_.load();
    run_.blocking.tile_runs = tile_runs_.load();
    run_.blocking.gemms_fused = gemms_fused_.load();
    run_.blocking.routed_packed = routed_packed_.load();
    run_.blocking.routed_direct = routed_direct_.load();
    run_.blocking.scans_elided = scans_elided_.load();
    // When several factor tasks broke down, the smallest column wins (block
    // columns own disjoint column ranges, so there are no ties).
    run_.min_pivot = std::numeric_limits<double>::infinity();
    run_.perturbed_columns.clear();
    run_.zero_pivots = 0;
    int fail_col = -1;
    FactorStatus fail_status = FactorStatus::kOk;
    for (const Outcome& o : outcome_) {
      run_.min_pivot = std::min(run_.min_pivot, o.min_diag);
      run_.zero_pivots += o.zero_pivot;
      run_.perturbed_columns.insert(run_.perturbed_columns.end(),
                                    o.perturbed.begin(), o.perturbed.end());
      if (o.fail_col >= 0 && (fail_col < 0 || o.fail_col < fail_col)) {
        fail_col = o.fail_col;
        fail_status = o.fail_status;
      }
    }
    std::sort(run_.perturbed_columns.begin(), run_.perturbed_columns.end());
    if (fail_col >= 0) {
      run_.status = fail_status;
      run_.failed_column = fail_col;
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
  /// Folds the factorization of block column k into its outcome slot, and
  /// cancels the run on a breakdown.  `col0` is the global column of the
  /// block's first panel column, so breakdown and perturbation positions
  /// are reported in matrix coordinates.
  void count_factor(int k, const kernels::FactorResult& r, int col0,
                    double min_diag) {
    Outcome& o = outcome_[k];
    o.min_diag = min_diag;
    for (int c : r.perturbed) o.perturbed.push_back(col0 + c);
    if (r.info != 0) {
      o.zero_pivot = true;
      o.fail(col0 + r.info - 1, FactorStatus::kSingular);
    }
    if (r.first_nonfinite >= 0) {
      o.fail(col0 + r.first_nonfinite, FactorStatus::kOverflow);
    }
    if (o.fail_col >= 0) cancel_.cancel();
  }

  void count_lazy_skip() {
    lazy_skipped_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Fused row runs dispatched to one engine: `runs` kernel runs, `fused`
  /// plan runs merged away by fusion.  kAuto means the scalar reference
  /// arm ran (no engine routing happened).
  void count_row_runs(blas::GemmEngine engine, long runs, int fused) {
    if (runs == 0) return;
    tile_runs_.fetch_add(runs, std::memory_order_relaxed);
    if (fused > 0) gemms_fused_.fetch_add(fused, std::memory_order_relaxed);
    if (engine == blas::GemmEngine::kPacked) {
      routed_packed_.fetch_add(runs, std::memory_order_relaxed);
    } else if (engine == blas::GemmEngine::kDirect) {
      routed_direct_.fetch_add(runs, std::memory_order_relaxed);
    }
  }

  void count_scans_elided(int n) {
    scans_elided_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Records `rows` scalar rows starting at global row `g0` of block
  /// column `col` -- the footprint unit of both layouts: one row of one
  /// block column, resource row * num_blocks + col.
  void record_rows(int id, rt::AccessKind kind, int g0, int rows, int col) {
    const long nb = run_.an.blocks.num_blocks();
    for (long r = g0; r < g0 + rows; ++r) {
      if (kind == rt::AccessKind::kRead) {
        run_.checker->read(id, r * nb + col);
      } else {
        run_.checker->write(id, r * nb + col);
      }
    }
  }

  /// Every row of row block i in block column `col`.
  void record_block(int id, rt::AccessKind kind, int i, int col) {
    const symbolic::SupernodePartition& part = run_.an.blocks.part;
    record_rows(id, kind, part.first(i), part.width(i), col);
  }

  /// The structural rows of L block `t` (index into cp.l_list) of panel k,
  /// recorded in block column `col`.
  void record_runs(int id, rt::AccessKind kind,
                   const symbolic::ColumnPlan& cp, int t, int col) {
    const int g0 = run_.an.blocks.part.first(cp.l_list[t]) - cp.l_offset[t];
    for (int r = cp.run_ptr[t]; r < cp.run_ptr[t + 1]; ++r) {
      record_rows(id, kind, g0 + cp.row_runs[r].src, cp.row_runs[r].rows, col);
    }
  }

  /// Row-run lists of the current task (one per engine), reused across
  /// tasks on this worker thread so steady-state updates allocate nothing.
  static std::vector<blas::RowSpan>& spans(int engine) {
    static thread_local std::vector<blas::RowSpan> lists[2];
    lists[engine].clear();
    return lists[engine];
  }

  /// Replays gemm's auto routing for an m-row L block against U_kj (the
  /// scan result `bdense` is computed by the caller, at most once).
  static blas::GemmEngine engine_for(int m, blas::ConstMatrixView ukj,
                                     bool bdense) {
    if (!blas::use_blocked_kernels()) return blas::GemmEngine::kAuto;
    return bdense && blas::gemm_pack_worthwhile(m, ukj.cols, ukj.rows)
               ? blas::GemmEngine::kPacked
               : blas::GemmEngine::kDirect;
  }

  NumericRun& run_;

 private:
  /// What Factor(k) / FactorDiag(k) observed; written by that task only.
  struct Outcome {
    double min_diag = std::numeric_limits<double>::infinity();
    std::vector<int> perturbed;
    bool zero_pivot = false;
    int fail_col = -1;
    FactorStatus fail_status = FactorStatus::kOk;

    /// The smallest failing column wins; at equal columns the first report.
    void fail(int col, FactorStatus status) {
      if (fail_col < 0 || col < fail_col) {
        fail_col = col;
        fail_status = status;
      }
    }
  };

  std::vector<Outcome> outcome_;
  std::atomic<long> lazy_skipped_{0};
  std::atomic<long> tile_runs_{0};
  std::atomic<long> gemms_fused_{0};
  std::atomic<long> routed_packed_{0};
  std::atomic<long> routed_direct_{0};
  std::atomic<long> scans_elided_{0};
  rt::CancelToken cancel_;
};

/// 1-D dispatcher: Factor(k) / Update(k, j) bodies over the packed panels,
/// kernels from core/kernels.h.  Update(k, j) writes only the diagonal
/// rows of block (k, j) and the structural L rows of panel k
/// (symbolic::ColumnPlan::row_runs) in block column j, and the analysis
/// proved the writers of every row ordered by the eforest graph
/// (symbolic::row_writer_chain_violations), so no body takes a lock.
class Run1D : public RunState {
 public:
  Run1D(NumericRun& run, const NumericOptions& opt)
      : RunState(run), lazy_(opt.lazy_updates),
        threshold_(opt.pivot_threshold) {}

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
      // Footprint (Theorem 4 bookkeeping): Factor(k) rewrites every row of
      // the packed panel of block column k and touches nothing else.
      const int id = run_.graph.tasks.factor_id(k);
      record_block(id, rt::AccessKind::kWrite, k, k);
      for (int t : an.block_plan.columns[k].l_list) {
        record_block(id, rt::AccessKind::kWrite, t, k);
      }
    }
    blas::MatrixView p = run_.blocks.panel(k);
    kernels::FactorResult r = kernels::factor_block(
        p, run_.ipiv[k], threshold_, run_.perturb_magnitude);
    const int wk = an.blocks.part.width(k);
    count_factor(k, r, an.blocks.part.first(k),
                 kernels::min_diag_abs(p.block(0, 0, wk, wk)));
  }

  void update(int k, int j) {
    const Analysis& an = run_.an;
    const symbolic::ColumnPlan& cp = an.block_plan.columns[k];
    if (run_.checker) record_update(k, j, cp);
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
    // (c) Schur update of the structural rows: B_tj -= L_tk * U_kj.
    schur_update(an, cp, j, panel_k.block(wk, 0, cp.panel_rows, wk), ukj);
  }

 private:
  /// One call of the row kernel per engine.  Routing replays gemm's auto
  /// decision per L block (size from the block's dimensions, the O(k*n)
  /// density scan of U_kj hoisted and run at most once, only when some
  /// block crosses the size threshold), so the forced engine IS the auto
  /// decision.  Runs adjacent in both panel k and column j fuse.  Bitwise
  /// equal to one gemm per whole L block: neither engine's per-element
  /// arithmetic depends on the row split, and the rows left out hold
  /// structural zeros of L_tk, whose contributions would leave every
  /// stored value unchanged (DESIGN.md section 16).
  void schur_update(const Analysis& an, const symbolic::ColumnPlan& cp, int j,
                    blas::ConstMatrixView l, blas::ConstMatrixView ukj) {
    if (cp.row_runs.empty()) return;
    const symbolic::SupernodePartition& part = an.blocks.part;
    // Hoisted density scan, with gemm's short-circuit preserved: it runs
    // only when some L block with runs crosses the size threshold.
    int scans_wanted = 0;
    bool bdense = false;
    if (blas::use_blocked_kernels()) {
      for (std::size_t t = 0; t + 1 < cp.run_ptr.size(); ++t) {
        scans_wanted += cp.run_ptr[t] < cp.run_ptr[t + 1] &&
                        blas::gemm_pack_worthwhile(part.width(cp.l_list[t]),
                                                   ukj.cols, ukj.rows);
      }
      if (scans_wanted > 0) {
        bdense = blas::gemm_b_dense_enough(blas::Trans::No, ukj, ukj.rows,
                                           ukj.cols);
      }
    }
    std::vector<blas::RowSpan>& direct = spans(0);
    std::vector<blas::RowSpan>& packed = spans(1);
    int merged = 0;
    for (std::size_t t = 0; t + 1 < cp.run_ptr.size(); ++t) {
      if (cp.run_ptr[t] == cp.run_ptr[t + 1]) continue;
      const int lt = cp.l_list[t];
      const int shift = run_.blocks.block_offset(lt, j) - cp.l_offset[t];
      std::vector<blas::RowSpan>& out =
          engine_for(part.width(lt), ukj, bdense) == blas::GemmEngine::kPacked
              ? packed
              : direct;
      for (int r = cp.run_ptr[t]; r < cp.run_ptr[t + 1]; ++r) {
        const symbolic::RowRun& run = cp.row_runs[r];
        const int dst = run.src + shift;
        if (!out.empty() && out.back().a_row + out.back().rows == run.src &&
            out.back().c_row + out.back().rows == dst) {
          out.back().rows += run.rows;
          ++merged;
        } else {
          out.push_back({run.src, dst, run.rows});
        }
      }
    }
    blas::MatrixView colj = run_.blocks.column(j);
    kernels::schur_update_rows(l, ukj, colj, direct.data(),
                               static_cast<int>(direct.size()),
                               blas::GemmEngine::kDirect);
    kernels::schur_update_rows(l, ukj, colj, packed.data(),
                               static_cast<int>(packed.size()),
                               blas::GemmEngine::kPacked);
    if (scans_wanted > 1) count_scans_elided(scans_wanted - 1);
    count_row_runs(blas::use_blocked_kernels() ? blas::GemmEngine::kDirect
                                               : blas::GemmEngine::kAuto,
                   static_cast<long>(direct.size()), merged);
    count_row_runs(blas::GemmEngine::kPacked,
                   static_cast<long>(packed.size()), 0);
  }

  /// Update(k, j) reads the diagonal block and the structural rows of
  /// panel k; it writes the diagonal rows of block (k, j) (pivot replay
  /// and trsm), the structural rows in column j (the row-exact gemm), and
  /// the target of every pivot interchange it replays.
  void record_update(int k, int j, const symbolic::ColumnPlan& cp) {
    const symbolic::SupernodePartition& part = run_.an.blocks.part;
    const int id = run_.graph.tasks.update_id(k, j);
    record_block(id, rt::AccessKind::kRead, k, k);
    record_block(id, rt::AccessKind::kWrite, k, j);
    for (std::size_t t = 0; t < cp.l_list.size(); ++t) {
      record_runs(id, rt::AccessKind::kRead, cp, static_cast<int>(t), k);
      record_runs(id, rt::AccessKind::kWrite, cp, static_cast<int>(t), j);
    }
    const std::vector<int>& ipiv = run_.ipiv[k];
    const int wk = part.width(k);
    for (int c = 0; c < static_cast<int>(ipiv.size()); ++c) {
      const int p = ipiv[c] - wk;  // L-part row of the interchange target
      if (p < 0) continue;
      const int t = static_cast<int>(
          std::upper_bound(cp.l_offset.begin(), cp.l_offset.end(), p) -
          cp.l_offset.begin() - 1);
      record_rows(id, rt::AccessKind::kWrite,
                  part.first(cp.l_list[t]) + (p - cp.l_offset[t]), 1, j);
    }
  }

  const bool lazy_;
  const double threshold_;
};

/// 2-D dispatcher: FactorDiag / FactorL / ComputeU / UpdateBlock bodies per
/// block, same kernels.  Pivoting is restricted to the diagonal block (the
/// price of 2-D distribution); rows outside it stay unpermuted.  Like
/// Update(k, j) in 1-D, UpdateBlock(i, k, j) writes only the structural
/// rows of L_ik, and the eforest graph orders the writers of each row
/// (taskgraph/build.h), so no body takes a lock.
class Run2D : public RunState {
 public:
  Run2D(NumericRun& run, const NumericOptions& opt)
      : RunState(run), lazy_(opt.lazy_updates),
        threshold_(opt.pivot_threshold) {}

  void run_task(int id) {
    const taskgraph::Task& t = run_.graph.tasks.task(id);
    switch (t.kind) {
      case taskgraph::TaskKind::kFactorDiag: {
        if (run_.checker) record_block(id, rt::AccessKind::kWrite, t.k, t.k);
        blas::MatrixView d = run_.blocks.block(t.k, t.k);
        kernels::FactorResult r = kernels::factor_block(
            d, run_.ipiv[t.k], threshold_, run_.perturb_magnitude);
        count_factor(t.k, r, run_.an.blocks.part.first(t.k),
                     kernels::min_diag_abs(d));
        break;
      }
      case taskgraph::TaskKind::kComputeU: {
        if (run_.checker) {
          record_block(id, rt::AccessKind::kRead, t.k, t.k);
          record_block(id, rt::AccessKind::kWrite, t.k, t.j);
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
          record_block(id, rt::AccessKind::kRead, t.k, t.k);
          record_block(id, rt::AccessKind::kWrite, t.i, t.k);
        }
        kernels::solve_with_u(run_.blocks.block(t.k, t.k),
                              run_.blocks.block(t.i, t.k));
        break;
      }
      case taskgraph::TaskKind::kUpdateBlock:
        update_block(id, t.i, t.k, t.j);
        break;
      default:
        throw std::logic_error("2-D driver: column-granularity task");
    }
  }

 private:
  /// B_ij -= L_ik U_kj on the structural rows of L_ik: one call of the row
  /// kernel, routed by replaying gemm's auto decision for the whole block
  /// (same predicates, same short-circuit), so the factors are bitwise
  /// those of a whole-block gemm.
  void update_block(int id, int i, int k, int j) {
    const symbolic::ColumnPlan& cp = run_.an.block_plan.columns[k];
    const int t = static_cast<int>(
        std::lower_bound(cp.l_list.begin(), cp.l_list.end(), i) -
        cp.l_list.begin());
    blas::ConstMatrixView lik = run_.blocks.block(i, k);
    blas::ConstMatrixView ukj = run_.blocks.block(k, j);
    if (run_.checker) {
      record_runs(id, rt::AccessKind::kRead, cp, t, k);
      record_block(id, rt::AccessKind::kRead, k, j);
      record_runs(id, rt::AccessKind::kWrite, cp, t, j);
    }
    // Operand reads are ordered by the graph's FL/CU edges; a zero
    // operand contributes nothing (LazyS+ at block granularity).
    if (lazy_ && (blas::max_abs(lik) == 0.0 || blas::max_abs(ukj) == 0.0)) {
      count_lazy_skip();
      return;
    }
    if (cp.run_ptr[t] == cp.run_ptr[t + 1]) return;
    const bool bdense =
        blas::use_blocked_kernels() &&
        blas::gemm_pack_worthwhile(lik.rows, ukj.cols, lik.cols) &&
        blas::gemm_b_dense_enough(blas::Trans::No, ukj, lik.cols, ukj.cols);
    const blas::GemmEngine eng = engine_for(lik.rows, ukj, bdense);
    std::vector<blas::RowSpan>& rows = spans(0);
    for (int r = cp.run_ptr[t]; r < cp.run_ptr[t + 1]; ++r) {
      const int off = cp.row_runs[r].src - cp.l_offset[t];
      rows.push_back({off, off, cp.row_runs[r].rows});
    }
    kernels::schur_update_rows(lik, ukj, run_.blocks.block(i, j), rows.data(),
                               static_cast<int>(rows.size()), eng);
    count_row_runs(eng, 1, 0);
  }

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
      const rt::ExecutionReport rep =
          rt::execute_task_graph(run.graph, opt.threads, polled, eopt);
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
