// The traced run: replays each layer through its public functions with a
// span around every call, checks every replay against the library, and
// reports per-layer metrics.  It runs apart from the end-to-end runs
// (which keep tracing off) and uses the same op inputs.
//
//   1. Analysis: the steps of analyze_prefix/analyze_suffix in their order;
//      permutations, partition, block count and task count must equal
//      plu::analyze().
//   2. Numeric, one thread: the 1-D right-looking loop through the
//      core/kernels.h calls, each gemm classified packed or direct with the
//      exported routing predicates; factors and pivots must be bitwise
//      equal to Factorization in kSequential mode.
//   3. Numeric, kThreads threads: the same task bodies through
//      rt::execute_task_graph with a per-column lock, as the library takes
//      it; bitwise equal to Factorization in kThreaded mode.  Busy, idle
//      and critical-path time come from per-task stamps.
//
// Every traced run then offers the service workload's open loop on the
// same seed, so the service.* metrics are measured on every workload.
#include <atomic>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "core/kernels.h"
#include "core/parallel_solve.h"
#include "graph/eforest.h"
#include "graph/postorder.h"
#include "graph/transversal.h"
#include "matrix/csc.h"
#include "runtime/dag_executor.h"
#include "runtime/parallel_for.h"
#include "taskgraph/analysis.h"
#include "workloads.h"

namespace perfbench {

using plu::Analysis;
using plu::CscMatrix;
using plu::Pattern;
using plu::Permutation;
namespace svc = plu::service;

namespace {

template <typename F>
double timed(F&& f) {
  const Clock::time_point t = Clock::now();
  f();
  return seconds_since(t);
}

[[noreturn]] void mismatch(const std::string& what) {
  throw std::runtime_error("traced replay differs from the library: " + what);
}

// ---------------------------------------------------------------------------
// 1. Analysis replay.

/// Mirrors analyze_prefix + analyze_suffix (core/analysis.cpp) for the
/// default options: sequential single-lane team, no scaling, column-only
/// ordering, postorder on, 1-D layout.
Analysis replay_analysis(const CscMatrix& m, SpanRecorder& rec, long op) {
  const plu::Options opt;
  Scoped root(rec, "analyze", op);
  plu::rt::Team team(1, opt.analysis.min_step_work);
  Analysis an;
  an.options = opt;
  const Pattern a = m.pattern();
  an.n = a.cols;
  an.nnz_input = a.nnz();

  Permutation q1;
  {
    Scoped s(rec, "ordering.s", op);
    plu::ordering::Controls ctl;
    ctl.team = &team;
    ctl.dry_run = opt.ordering_dry_run;
    q1 = plu::ordering::compute_column_ordering(a, opt.ordering, ctl,
                                                &an.ordering_decision);
  }
  const Pattern a1 = a.permuted(Permutation(a.rows), q1);
  std::optional<Permutation> p1;
  {
    Scoped s(rec, "graph.transversal_s", op);
    p1 = plu::graph::zero_free_diagonal_permutation(a1);
  }
  if (!p1) mismatch("transversal found no zero-free diagonal");
  const Pattern a2 = a1.permuted(*p1, Permutation(a.cols));
  plu::symbolic::SymbolicResult sym;
  {
    Scoped s(rec, "symbolic.static_s", op);
    sym = plu::symbolic::static_symbolic_factorization(a2, opt.symbolic_engine,
                                                       team);
  }
  plu::graph::Forest ef;
  Permutation p2;
  {
    Scoped s(rec, "graph.eforest_s", op);
    ef = plu::graph::lu_eforest(sym.abar);
    p2 = plu::graph::postorder_permutation(ef);
    sym.abar = plu::graph::apply_symmetric_permutation(sym.abar, p2);
    ef = ef.relabeled(p2);
  }
  an.row_perm = Permutation::compose(*p1, p2);
  an.col_perm = Permutation::compose(q1, p2);
  an.symbolic = std::move(sym);
  an.eforest = std::move(ef);
  {
    Scoped s(rec, "symbolic.supernodes_s", op);
    an.exact_partition = plu::symbolic::find_supernodes(an.symbolic.abar, team);
    an.partition = plu::symbolic::amalgamate(an.symbolic.abar, an.eforest,
                                             an.exact_partition,
                                             opt.amalgamation, team);
  }
  {
    Scoped s(rec, "symbolic.blocks_s", op);
    an.blocks = plu::symbolic::build_block_structure(an.symbolic.abar,
                                                     an.partition, true, team);
    an.block_plan =
        plu::symbolic::build_block_plan(an.symbolic.abar, an.blocks, team);
  }
  {
    Scoped s(rec, "taskgraph.build_s", op);
    an.graph = plu::taskgraph::build_task_graph(
        an.blocks, opt.task_graph, plu::taskgraph::Granularity::kColumn, team);
    an.costs =
        plu::taskgraph::compute_task_costs(an.blocks, an.graph.tasks, team);
  }
  return an;
}

void check_same_analysis(const Analysis& r, const Analysis& lib) {
  if (r.row_perm.old_positions() != lib.row_perm.old_positions()) {
    mismatch("row permutation");
  }
  if (r.col_perm.old_positions() != lib.col_perm.old_positions()) {
    mismatch("column permutation");
  }
  if (r.partition.boundaries() != lib.partition.boundaries()) {
    mismatch("supernode partition");
  }
  if (r.blocks.num_blocks() != lib.blocks.num_blocks()) mismatch("block count");
  if (r.graph.size() != lib.graph.size()) mismatch("task count");
}

// ---------------------------------------------------------------------------
// 2./3. Numeric replay.

/// Flops and call counts per kernel class.
struct KernelCounts {
  double getrf_flops = 0.0, trsm_flops = 0.0;
  double direct_flops = 0.0, packed_flops = 0.0;
  long direct_calls = 0, packed_calls = 0;
  double total() const {
    return getrf_flops + trsm_flops + direct_flops + packed_flops;
  }
};

/// The 1-D task bodies over one BlockMatrix (core/driver.cpp Run1D without
/// the plan's tile fusion: per-block gemms under the engine kAuto picks are
/// bitwise equal to the fused runs, the routing contract of blas/level3.h).
class Replay1D {
 public:
  /// `counts` may be null: the threaded replay runs tasks concurrently and
  /// counts nothing.
  Replay1D(const Analysis& an, plu::BlockMatrix& bm, SpanRecorder& rec,
           long op, KernelCounts* counts)
      : an_(an), bm_(bm), rec_(rec), op_(op), counts_(counts),
        ipiv_(an.blocks.num_blocks()) {}

  void factor(int k) {
    Scoped s(rec_, "blas.getrf_s", op_);
    plu::blas::MatrixView p = bm_.panel(k);
    plu::kernels::FactorResult r = plu::kernels::factor_block(p, ipiv_[k], 1.0);
    if (r.info != 0 || r.first_nonfinite >= 0) failed_ = true;
    if (counts_ != nullptr) {
      counts_->getrf_flops += plu::blas::getrf_flops(p.rows, p.cols);
    }
  }

  void update(int k, int j) {
    {
      Scoped s(rec_, "core.pivot_s", op_);
      plu::kernels::apply_panel_pivots(bm_, ipiv_[k], k, j);
    }
    const int wk = an_.blocks.part.width(k);
    const int wj = an_.blocks.part.width(j);
    plu::blas::ConstMatrixView panel_k = bm_.panel(k);
    plu::blas::MatrixView ukj = bm_.block(k, j);
    {
      Scoped s(rec_, "blas.trsm_s", op_);
      plu::kernels::solve_with_l(panel_k.block(0, 0, wk, wk), ukj);
    }
    if (counts_ != nullptr) {
      counts_->trsm_flops += plu::blas::trsm_flops(plu::blas::Side::Left, wk, wj);
    }
    const bool blocked = plu::blas::use_blocked_kernels();
    int bdense = -1;  // density scan of U_kj, run at most once (as Run1D)
    int off = wk;
    for (int t : an_.blocks.l_blocks(k)) {
      const int wt = an_.blocks.part.width(t);
      bool packed = false;
      if (blocked && plu::blas::gemm_pack_worthwhile(wt, wj, wk)) {
        if (bdense < 0) {
          bdense = plu::blas::gemm_b_dense_enough(plu::blas::Trans::No, ukj,
                                                   wk, wj);
        }
        packed = bdense == 1;
      }
      {
        Scoped s(rec_, packed ? "blas.gemm_packed_s" : "blas.gemm_direct_s",
                 op_);
        plu::kernels::schur_update(
            panel_k.block(off, 0, wt, wk), ukj, bm_.block(t, j),
            packed ? plu::blas::GemmEngine::kPacked
                   : plu::blas::GemmEngine::kDirect);
      }
      if (counts_ != nullptr) {
        const double f = plu::blas::gemm_flops(wt, wj, wk);
        (packed ? counts_->packed_flops : counts_->direct_flops) += f;
        ++(packed ? counts_->packed_calls : counts_->direct_calls);
      }
      off += wt;
    }
  }

  void run_task(int id) {
    const plu::taskgraph::Task& t = an_.graph.tasks.task(id);
    if (t.kind == plu::taskgraph::TaskKind::kFactor) {
      factor(t.k);
    } else {
      update(t.k, t.j);
    }
  }

  const std::vector<std::vector<int>>& ipiv() const { return ipiv_; }
  bool failed() const { return failed_.load(); }

 private:
  const Analysis& an_;
  plu::BlockMatrix& bm_;
  SpanRecorder& rec_;
  long op_;
  KernelCounts* counts_;
  std::vector<std::vector<int>> ipiv_;
  std::atomic<bool> failed_{false};
};

void check_same_factors(const plu::BlockMatrix& bm,
                        const std::vector<std::vector<int>>& ipiv,
                        const plu::Factorization& f, const char* what) {
  const int nb = bm.num_block_columns();
  for (int j = 0; j < nb; ++j) {
    plu::blas::ConstMatrixView x = bm.column(j);
    plu::blas::ConstMatrixView y = f.blocks().column(j);
    if (x.rows != y.rows || x.cols != y.cols) {
      mismatch(std::string(what) + ": block column shape");
    }
    for (int c = 0; c < x.cols; ++c) {
      if (std::memcmp(x.col(c), y.col(c), sizeof(double) * x.rows) != 0) {
        mismatch(std::string(what) + ": factor bits in block column " +
                 std::to_string(j));
      }
    }
    if (ipiv[j] != f.panel_ipiv(j)) {
      mismatch(std::string(what) + ": pivots of panel " + std::to_string(j));
    }
  }
}

// ---------------------------------------------------------------------------
// Per-subject measurement.

/// Seconds one span costs (open + close), timed over many empty spans.
double span_cost_s() {
  constexpr int kProbe = 100000;
  SpanRecorder r;
  const Clock::time_point t = Clock::now();
  for (int i = 0; i < kProbe; ++i) Scoped s(r, "probe", 0);
  return seconds_since(t) / kProbe;
}

/// Repetitions of the facade replay per subject; core.facade_s is their
/// median (one repetition takes milliseconds).
constexpr int kFacadeReps = 15;

using Values = std::map<std::string, double>;

/// One traced pass over one op input; returns every per-layer value it
/// measured.  `lu` holds the library's analysis of the input's pattern.
/// The pass's spans are appended to `keep` when it is given.
Values trace_subject(const OpInput& in, plu::SparseLU& lu, long op,
                     std::vector<Span>* keep) {
  Values v;
  // A gemm class the replay never routes to still reads as zero time.
  v["blas.gemm_direct_s"] = 0.0;
  v["blas.gemm_packed_s"] = 0.0;
  const CscMatrix& a = in.a;
  const std::vector<double>& b = in.b;
  const Analysis& an = lu.analysis();
  const plu::NumericOptions nopt = numeric_options();
  SpanRecorder rec;

  // 1. Analysis replay.
  check_same_analysis(replay_analysis(a, rec, op), an);

  // 2. One-thread numeric replay, traced, then untraced for the overhead.
  const auto seq_replay = [&](SpanRecorder& r, KernelCounts* counts,
                              double* storage_mb) {
    Scoped root(r, "factor_seq", op);
    std::unique_ptr<plu::BlockMatrix> bm;
    {
      Scoped s(r, "core.load_s", op);
      bm = std::make_unique<plu::BlockMatrix>(an.blocks);
      bm->load(an.permute_input(a));
    }
    Replay1D rep(an, *bm, r, op, counts);
    const int nb = an.blocks.num_blocks();
    for (int k = 0; k < nb; ++k) {
      rep.run_task(an.graph.tasks.factor_id(k));
      auto [b, e] = an.graph.tasks.stage_range(k);
      for (int id = b; id < e; ++id) rep.run_task(id);
    }
    if (rep.failed()) mismatch("replayed factorization broke down");
    if (storage_mb != nullptr) {
      *storage_mb = static_cast<double>(bm->storage_bytes()) / (1 << 20);
    }
    return std::make_pair(std::move(bm), rep.ipiv());
  };
  KernelCounts counts;
  double storage_mb = 0.0;
  const std::size_t spans_before = rec.spans().size();
  auto [bm_seq, ipiv_seq] = seq_replay(rec, &counts, &storage_mb);
  const std::size_t seq_spans = rec.spans().size() - spans_before;
  SpanRecorder off(false);
  const double untraced_s = timed([&] { seq_replay(off, nullptr, nullptr); });

  plu::NumericOptions seq_opt = nopt;
  seq_opt.mode = plu::ExecutionMode::kSequential;
  std::unique_ptr<plu::Factorization> f_seq;
  const double lib_seq_s = timed(
      [&] { f_seq = std::make_unique<plu::Factorization>(an, a, seq_opt); });
  check_same_factors(*bm_seq, ipiv_seq, *f_seq, "one-thread replay");

  // 3. Threaded replay with per-task stamps.
  const plu::taskgraph::TaskGraph& g = an.graph;
  plu::BlockMatrix bm_thr(an.blocks, plu::StorageMode::kArena, kThreads);
  bm_thr.load(an.permute_input(a));
  SpanRecorder quiet(false);
  Replay1D rep_thr(an, bm_thr, quiet, op, nullptr);
  std::vector<std::mutex> locks(an.blocks.num_blocks());
  std::vector<double> task_s(g.size());
  const double thr_wall = timed([&] {
    plu::rt::ExecutionReport rep = plu::rt::execute_task_graph(
        g, kThreads, [&](int id) {
          const plu::taskgraph::Task& t = g.tasks.task(id);
          std::lock_guard<std::mutex> lock(locks[t.j]);
          const Clock::time_point s = Clock::now();
          rep_thr.run_task(id);
          task_s[id] = seconds_since(s);
        });
    if (!rep.completed) mismatch("threaded replay did not complete");
  });
  std::unique_ptr<plu::Factorization> f_thr;
  const double lib_thr_s = timed(
      [&] { f_thr = std::make_unique<plu::Factorization>(an, a, nopt); });
  check_same_factors(bm_thr, rep_thr.ipiv(), *f_thr, "threaded replay");
  double busy = 0.0;
  for (double s : task_s) busy += s;
  const double empty_wall = timed([&] {
    plu::rt::execute_task_graph(g, kThreads, [](int) {});
  });

  // Solves.
  std::vector<double> x_seq, x_par;
  {
    Scoped root(rec, "solve", op);
    {
      Scoped s(rec, "core.solve_s", op);
      x_seq = f_thr->solve(b);
    }
    std::unique_ptr<plu::ParallelSolver> ps;
    {
      Scoped s(rec, "core.psolve_build_s", op);
      ps = std::make_unique<plu::ParallelSolver>(*f_thr);
    }
    {
      Scoped s(rec, "core.psolve_s", op);
      x_par = ps->solve(b, kThreads);
    }
  }
  if (!residual_ok(a, x_seq, b)) mismatch("sequential solve residual");
  if (!residual_ok(a, x_par, b)) mismatch("parallel solve residual");

  // Facade: what SparseLU::factorize does on a cached analysis besides
  // Factorization -- the reuse guard (dims, fingerprint, confirming
  // compare) and the copy of A it keeps -- through the same public calls.
  lu.factorize(a);
  if (lu.analyze_count() != 1) mismatch("SparseLU re-ran its analysis");
  const Pattern analyzed = a.pattern();
  const std::uint64_t fingerprint = plu::structure_fingerprint(
      a.rows(), a.cols(), a.col_ptr(), a.row_ind());
  std::vector<double> facade;
  std::optional<CscMatrix> kept;
  for (int r = 0; r < kFacadeReps; ++r) {
    facade.push_back(timed([&] {
      const bool same =
          analyzed.rows == a.rows() && analyzed.cols == a.cols() &&
          fingerprint == plu::structure_fingerprint(a.rows(), a.cols(),
                                                    a.col_ptr(),
                                                    a.row_ind()) &&
          analyzed.ptr == a.col_ptr() && analyzed.idx == a.row_ind();
      if (!same) mismatch("reuse guard rejected the analyzed pattern");
      kept = a;
    }));
  }
  if (kept->nnz() != a.nnz()) mismatch("facade copy");

  // Self times: a layer span's self time is that layer's time; a root
  // span's self time is what no layer accounts for.
  const std::vector<Span>& spans = rec.spans();
  const std::vector<double> self = self_times(spans);
  double root_total = 0.0, unaccounted = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      root_total += (spans[i].end_ns - spans[i].start_ns) * 1e-9;
      unaccounted += self[i];
    } else {
      v[spans[i].name] += self[i];
    }
  }
  if (keep != nullptr) {
    const int base = static_cast<int>(keep->size());
    for (Span s : spans) {
      if (s.parent >= 0) s.parent += base;
      keep->push_back(s);
    }
  }
  // Flops per kernel class (not printed): run_traced divides them by the
  // aggregated self times.
  v["blas.getrf_flops"] = counts.getrf_flops;
  v["blas.trsm_flops"] = counts.trsm_flops;
  v["blas.gemm_direct_flops"] = counts.direct_flops;
  v["blas.gemm_packed_flops"] = counts.packed_flops;
  v["blas.gemm_direct_calls"] = static_cast<double>(counts.direct_calls);
  v["blas.gemm_packed_calls"] = static_cast<double>(counts.packed_calls);
  v["blas.flops"] = counts.total();
  v["core.storage_mb"] = storage_mb;
  v["core.unaccounted_s"] = unaccounted;
  v["trace.unaccounted_share"] = root_total > 0.0 ? unaccounted / root_total : 0.0;
  // Tracing overhead of the one-thread replay: its spans times the cost of
  // one span.  (Traced minus untraced time of one pass is smaller than the
  // host's noise and changes sign from pass to pass.)
  static const double kSpanCost = span_cost_s();
  v["trace.overhead_share"] =
      static_cast<double>(seq_spans) * kSpanCost / untraced_s;

  v["graph.trees"] = an.eforest.num_trees();
  v["symbolic.supernodes"] = an.partition.count();
  v["symbolic.fill_ratio"] = an.fill_ratio();
  v["taskgraph.tasks"] = g.size();
  v["taskgraph.critical_path_share"] =
      plu::taskgraph::critical_path(g, g.flops).length / g.total_flops;

  v["runtime.factor_threaded_s"] = lib_thr_s;
  v["runtime.speedup"] = lib_seq_s / lib_thr_s;
  v["runtime.busy_fraction"] = busy / (kThreads * thr_wall);
  v["runtime.idle_s"] = kThreads * thr_wall - busy;
  v["runtime.critical_path_s"] =
      plu::taskgraph::critical_path(g, task_s).length;
  v["runtime.empty_dag_us_per_task"] = empty_wall / g.size() * 1e6;

  v["core.facade_s"] = median(facade);
  return v;
}

/// Service-only metrics from one open-loop pass (RequestResult and the
/// service counters).
Values service_values(const ServiceRun& run) {
  std::vector<double> queue, analyze_miss, factor, solve;
  for (const plu::service::RequestResult& r : run.results) {
    queue.push_back(r.queue_seconds * 1e3);
    if (!r.cache_hit) analyze_miss.push_back(r.analyze_seconds * 1e3);
    if (r.state == plu::service::RequestState::kDone) {
      factor.push_back(r.factor_seconds * 1e3);
      solve.push_back(r.solve_seconds * 1e3);
    }
  }
  const plu::service::CacheStats& c = run.stats.cache;
  const double lookups = static_cast<double>(c.hits + c.misses);
  Values v;
  v["service.queue_ms_p50"] = median(queue);
  v["service.analyze_ms_miss_p50"] = median(analyze_miss);
  v["service.factor_ms_p50"] = median(factor);
  v["service.solve_ms_p50"] = median(solve);
  v["service.cache_lookups"] = lookups;
  v["service.cache_hit_ratio"] = lookups > 0 ? c.hits / lookups : 0.0;
  v["service.analyze_runs"] = static_cast<double>(c.analyze_runs);
  v["service.gen_lag_ms_max"] = max_generator_lag(run.samples) * 1e3;
  return v;
}

/// Unit of every per-layer metric, in output order.
const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> u = {
      {"ordering.s", "s"},
      {"graph.transversal_s", "s"},
      {"graph.eforest_s", "s"},
      {"graph.trees", "count"},
      {"symbolic.static_s", "s"},
      {"symbolic.supernodes_s", "s"},
      {"symbolic.blocks_s", "s"},
      {"symbolic.supernodes", "count"},
      {"symbolic.fill_ratio", "ratio"},
      {"taskgraph.build_s", "s"},
      {"taskgraph.tasks", "count"},
      {"taskgraph.critical_path_share", "ratio"},
      {"blas.flops", "flop"},
      {"core.pivot_s", "s"},
      {"blas.getrf_s", "s"},
      {"blas.getrf_gflops", "Gflop/s"},
      {"blas.trsm_s", "s"},
      {"blas.trsm_gflops", "Gflop/s"},
      {"blas.gemm_direct_s", "s"},
      {"blas.gemm_direct_gflops", "Gflop/s"},
      {"blas.gemm_direct_calls", "count"},
      {"blas.gemm_packed_s", "s"},
      {"blas.gemm_packed_gflops", "Gflop/s"},
      {"blas.gemm_packed_calls", "count"},
      {"core.load_s", "s"},
      {"core.storage_mb", "MiB"},
      {"runtime.factor_threaded_s", "s"},
      {"runtime.speedup", "ratio"},
      {"runtime.busy_fraction", "ratio"},
      {"runtime.idle_s", "s"},
      {"runtime.critical_path_s", "s"},
      {"runtime.empty_dag_us_per_task", "us"},
      {"core.solve_s", "s"},
      {"core.psolve_s", "s"},
      {"core.psolve_build_s", "s"},
      {"core.facade_s", "s"},
      {"service.queue_ms_p50", "ms"},
      {"service.analyze_ms_miss_p50", "ms"},
      {"service.factor_ms_p50", "ms"},
      {"service.solve_ms_p50", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.cache_lookups", "count"},
      {"service.analyze_runs", "count"},
      {"service.gen_lag_ms_max", "ms"},
      {"core.unaccounted_s", "s"},
      {"trace.unaccounted_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return u;
}

/// An op input the traced run replays, with the library's analysis of it.
struct Subject {
  OpInput in;
  plu::SparseLU lu;
};

}  // namespace

Result run_traced(const std::string& workload, std::uint64_t seed,
                  double seconds, const std::string& spans_path) {
  std::vector<Subject> subjects;
  const auto add_subject = [&](OpInput in) {
    Subject s;
    s.lu.numeric_options() = numeric_options();
    s.lu.analyze(in.a);
    s.in = std::move(in);
    subjects.push_back(std::move(s));
  };
  if (workload == "cold") {
    for (long i = 0; i < 3; ++i) add_subject(cold_op(seed, i));
  } else if (workload == "refactor") {
    add_subject(refactor_op(refactor_base(seed), seed, 0));
  } else if (workload == "service") {
    // The first request of each class: three hot patterns and a one-off.
    const std::vector<CscMatrix> hot = service_hot_patterns();
    std::vector<bool> seen(hot.size() + 1, false);
    for (long i = 0; subjects.size() < seen.size(); ++i) {
      OpInput in = service_request(hot, seed, i);
      if (!seen[in.pattern + 1]) {
        seen[in.pattern + 1] = true;
        add_subject(std::move(in));
      }
    }
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }

  // Rounds over all subjects for half the time (at least one round); the
  // service pass below takes the rest.
  std::vector<Span> kept;
  std::vector<std::vector<Values>> per(subjects.size());
  const double budget = seconds / 2;
  const Clock::time_point t0 = Clock::now();
  long op = 0;
  do {
    for (std::size_t s = 0; s < subjects.size(); ++s) {
      per[s].push_back(trace_subject(subjects[s].in, subjects[s].lu, op++,
                                     spans_path.empty() ? nullptr : &kept));
    }
  } while (seconds_since(t0) < budget);

  // Per subject the median over rounds, then the mean over subjects.
  Values agg;
  for (const auto& rounds : per) {
    std::map<std::string, std::vector<double>> by;
    for (const Values& r : rounds) {
      for (const auto& [k, x] : r) by[k].push_back(x);
    }
    for (const auto& [k, xs] : by) {
      agg[k] += median(xs) / static_cast<double>(subjects.size());
    }
  }

  // Kernel rates from aggregated flops and time, so a subject without a
  // call of some class does not pull that class's rate towards zero.  A
  // class no subject called reads 0.
  for (const char* k : {"getrf", "trsm", "gemm_direct", "gemm_packed"}) {
    const std::string b = std::string("blas.") + k;
    const double t = agg[b + "_s"];
    agg[b + "_gflops"] = t > 0.0 ? agg[b + "_flops"] / t * 1e-9 : 0.0;
  }

  // The service layer, read from RequestResult: the service workload's
  // open loop on this seed, whichever workload is traced.
  Result res;
  {
    svc::ServiceOptions opt;
    opt.threads = kThreads;
    svc::SolverService s(opt);
    const std::vector<CscMatrix> hot = service_hot_patterns();
    warm_service(s, hot, seed);
    ServiceRun run = run_service_loop(s, hot, seed, service_count(seconds));
    for (const OpenLoopSample& o : run.samples) {
      ++res.attempted;
      if (!o.ok) ++res.failed;
    }
    for (const auto& [k, x] : service_values(run)) agg[k] = x;
  }
  res.attempted += op;

  for (const auto& [name, unit] : layer_units()) {
    auto it = agg.find(name);
    if (it == agg.end()) {
      throw std::logic_error(std::string("per-layer metric not measured: ") +
                             name);
    }
    res.add(name, unit, it->second);
  }

  if (!spans_path.empty()) {
    std::ofstream out(spans_path);
    for (const Span& s : kept) {
      plu::bench::JsonRecord r;
      r.field("name", s.name)
          .field("start_ns", static_cast<long>(s.start_ns))
          .field("end_ns", static_cast<long>(s.end_ns))
          .field("parent", s.parent)
          .field("op", s.op);
      out << r.str() << '\n';
    }
  }
  return res;
}

}  // namespace perfbench
