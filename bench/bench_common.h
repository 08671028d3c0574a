// Shared helpers for the reproduction benches.
//
// Each bench binary regenerates one table or figure of the paper (see
// DESIGN.md section 4): it prints the paper-formatted table on stdout and,
// where wall-clock timing is meaningful on this one-core host, registers
// google-benchmark timings as well.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/sparse_lu.h"
#include "matrix/named_matrices.h"
#include "runtime/simulator.h"

namespace plu::bench {

// Machine-readable results: every bench binary accepts `--json out.json` (or
// `--json=out.json`) and then APPENDS one JSON object per measurement as a
// JSON-lines record, so several binaries can share one artifact file.  The
// whole emitter -- JsonRecord, json_output_path, strip_json_flag (run before
// google-benchmark sees argv, which would otherwise reject the flag) and
// json_append -- lives in bench_json.h, shared with the binaries that do not
// link google-benchmark; there is exactly ONE escaping/NaN policy.

/// Warmup + min-of-N timing protocol: one untimed warmup run (faults the
/// pages in, fills caches and allocator pools), then `reps` timed runs,
/// returning the MINIMUM wall-clock seconds.  The minimum is the standard
/// noise-resistant statistic for short deterministic kernels on a shared
/// host: every perturbation (scheduler preemption, page fault, turbo
/// transition) only ever ADDS time, so the min is the best estimate of the
/// undisturbed cost.  reps < 1 is clamped to 1.
template <class Fn>
inline double min_of_n_seconds(int reps, Fn&& fn) {
  fn();  // warmup, untimed
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < std::max(1, reps); ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    best = std::min(
        best, std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count());
  }
  return best;
}

/// The paper's pipeline: minimum degree on A^T A ("we use the minimum degree
/// algorithm on A^T A"), postorder on, the eforest task graph.  The library
/// default ordering is kAuto; the reproduction tables and figures pin the
/// paper's method so their fills, supernode counts and simulated times stay
/// the paper's.
inline Options paper_options() {
  Options opt;
  opt.ordering = ordering::Method::kMinimumDegreeAtA;
  return opt;
}

/// Analysis + simulated makespan for one matrix/options/processor-count.
inline double simulated_seconds(const Analysis& an, int processors,
                                rt::SchedulePolicy policy =
                                    rt::SchedulePolicy::kCriticalPath) {
  rt::MachineModel m = rt::MachineModel::origin2000(processors);
  return rt::simulate(an.graph, an.costs, m, policy).makespan;
}

/// Cached analyses for the named suite (one pipeline run per matrix/options).
struct SuiteAnalyses {
  std::vector<NamedMatrix> matrices;
  std::vector<Analysis> analyses;
};

inline SuiteAnalyses analyze_suite(const Options& opt) {
  SuiteAnalyses s;
  s.matrices = make_benchmark_suite();
  s.analyses.reserve(s.matrices.size());
  for (const NamedMatrix& nm : s.matrices) {
    s.analyses.push_back(analyze(nm.a, opt));
  }
  return s;
}

inline void print_rule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// The Figure 5/6 series: improvement 1 - PT(new)/PT(old) for P = 1..8,
/// against both readings of the S* baseline (see taskgraph/build.h).
inline void print_taskgraph_improvement(const std::vector<std::string>& names) {
  Options newopt = paper_options();
  newopt.task_graph = taskgraph::GraphKind::kEforest;
  for (auto baseline : {taskgraph::GraphKind::kSStarProgramOrder,
                        taskgraph::GraphKind::kSStar}) {
    Options oldopt = paper_options();
    oldopt.task_graph = baseline;
    std::printf("baseline: %s\n", taskgraph::to_string(baseline).c_str());
    std::printf("%-10s", "Matrix");
    for (int p = 1; p <= 8; ++p) std::printf("    P=%d ", p);
    std::printf("\n");
    print_rule(10 + 8 * 8);
    for (const std::string& name : names) {
      NamedMatrix nm = make_named_matrix(name);
      Analysis an_new = analyze(nm.a, newopt);
      Analysis an_old = analyze(nm.a, oldopt);
      std::printf("%-10s", name.c_str());
      for (int p = 1; p <= 8; ++p) {
        double tnew = simulated_seconds(an_new, p);
        double told = simulated_seconds(an_old, p);
        std::printf(" %6.1f%%", 100.0 * (1.0 - tnew / told));
      }
      std::printf("\n");
    }
    print_rule(10 + 8 * 8);
    std::printf("\n");
  }
}

/// The Figure 5/6 headline on real threads: the numeric factorization of
/// each matrix under the eforest, S* and S*-program-order graphs at 1, 2
/// and 4 threads (Factorization in kThreaded mode, min of `reps` after a
/// warmup), beside the simulator's P=4 makespan for the same graph.  The
/// repetition loop is the outer one -- each rep times every graph at every
/// thread count -- so host drift spreads over all cells instead of landing
/// on whichever graph ran last.  Ends with the gate the reproduction claims
/// (eforest no slower than the program-order S* graph at 4 threads on every
/// matrix) and each matrix's T=1 spread across the three graphs, which do
/// identical work at one thread: the spread is the noise floor the gate is
/// read against.
inline void print_real_thread_arm(const std::vector<std::string>& names,
                                  int reps = 5) {
  constexpr int kGraphs = 3;
  constexpr int kThreadCounts = 3;
  const taskgraph::GraphKind kinds[kGraphs] = {
      taskgraph::GraphKind::kEforest, taskgraph::GraphKind::kSStar,
      taskgraph::GraphKind::kSStarProgramOrder};
  const int threads[kThreadCounts] = {1, 2, 4};
  std::printf("Real threads: numeric factorization wall time, min of %d "
              "(ms), and the simulator's P=4 makespan\n\n",
              reps);
  std::printf("%-10s %-20s %9s %9s %9s %12s\n", "Matrix", "graph", "T=1",
              "T=2", "T=4", "sim P=4 (s)");
  print_rule(74);
  std::vector<std::string> losers;
  std::vector<double> t1_spread;
  for (const std::string& name : names) {
    const NamedMatrix nm = make_named_matrix(name);
    std::vector<Analysis> an;
    for (taskgraph::GraphKind kind : kinds) {
      Options opt = paper_options();
      opt.task_graph = kind;
      an.push_back(analyze(nm.a, opt));
    }
    auto factor = [&](int g, int t) {
      NumericOptions nopt;
      nopt.mode = ExecutionMode::kThreaded;
      nopt.threads = threads[t];
      const auto t0 = std::chrono::steady_clock::now();
      Factorization f(an[g], nm.a, nopt);
      return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           t0)
          .count();
    };
    double best[kGraphs][kThreadCounts];
    for (int g = 0; g < kGraphs; ++g) {
      for (int t = 0; t < kThreadCounts; ++t) {
        factor(g, t);  // warmup, untimed
        best[g][t] = std::numeric_limits<double>::infinity();
      }
    }
    for (int r = 0; r < std::max(1, reps); ++r) {
      for (int g = 0; g < kGraphs; ++g) {
        for (int t = 0; t < kThreadCounts; ++t) {
          best[g][t] = std::min(best[g][t], factor(g, t));
        }
      }
    }
    for (int g = 0; g < kGraphs; ++g) {
      std::printf("%-10s %-20s", name.c_str(),
                  taskgraph::to_string(kinds[g]).c_str());
      for (int t = 0; t < kThreadCounts; ++t) {
        std::printf(" %9.2f", 1e3 * best[g][t]);
        json_append(JsonRecord()
                        .field("bench", "taskgraph_real_threads")
                        .field("matrix", name)
                        .field("graph", taskgraph::to_string(kinds[g]))
                        .field("threads", threads[t])
                        .field("seconds", best[g][t])
                        .field("reps", reps));
      }
      std::printf(" %12.4f\n", simulated_seconds(an[g], 4));
    }
    const auto [t1_min, t1_max] =
        std::minmax({best[0][0], best[1][0], best[2][0]});
    t1_spread.push_back(t1_max / t1_min - 1.0);
    if (best[0][kThreadCounts - 1] > best[2][kThreadCounts - 1]) {
      losers.push_back(name);
    }
  }
  print_rule(74);
  std::printf("gate: eforest <= sstar-program-order at 4 threads: %s",
              losers.empty() ? "PASS" : "FAIL on");
  for (const std::string& n : losers) std::printf(" %s", n.c_str());
  std::printf("\nT=1 spread across the three graphs (identical work):");
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::printf(" %s %.1f%%", names[i].c_str(), 100.0 * t1_spread[i]);
  }
  std::printf("\n\n");
}

/// Runs any registered google-benchmark timings, then the table printer.
/// Usage: PLU_BENCH_MAIN(print_table)
#define PLU_BENCH_MAIN(print_fn)                      \
  int main(int argc, char** argv) {                   \
    ::plu::bench::strip_json_flag(&argc, argv);       \
    ::benchmark::Initialize(&argc, argv);             \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1; \
    ::benchmark::RunSpecifiedBenchmarks();            \
    print_fn();                                       \
    return 0;                                         \
  }

}  // namespace plu::bench
