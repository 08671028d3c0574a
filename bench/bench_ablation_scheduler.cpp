// Ablation A5: scheduler policy and placement model.  Crosses
// {critical-path, FIFO} priorities with {free-schedule, owner-computes}
// placement on both dependence graphs, at P = 8.  Two findings this pins
// down (EXPERIMENTS.md):
//   * under owner-computes every update into a column is serialized on its
//     owner, so the dependence-graph choice is nearly irrelevant there;
//   * under free scheduling, the eforest graph's advantage over the
//     program-order S* baseline survives even the FIFO scheduler.
// A second table runs the REAL DAG runtime with schedule fuzzing
// (rt::ExecOptions::fuzz: seeded random ready-task picks) over
// spin-per-flop task bodies and reports the makespan spread across
// interleavings: how sensitive each graph's makespan is to the schedule
// the runtime happens to pick.
#include <algorithm>
#include <chrono>
#include <cstdint>

#include "bench_common.h"
#include "runtime/dag_executor.h"

namespace plu::bench {
namespace {

// Wall-clock makespan of one fuzzed execution with task bodies that spin
// proportionally to the task's flop count.
double fuzzed_makespan_ms(const taskgraph::TaskGraph& g,
                          const std::vector<double>& flops, int threads,
                          std::uint64_t seed) {
  // ~1 spin unit per 'scale' flops keeps each run in the few-ms range.
  double max_flops = 1.0;
  for (double f : flops) max_flops = std::max(max_flops, f);
  const double scale = max_flops / 4000.0;
  rt::FuzzOptions fuzz;
  fuzz.seed = seed;
  fuzz.max_delay_us = 0;  // perturb the pick order only, not task durations
  rt::ExecOptions eopt;
  eopt.fuzz = &fuzz;
  auto t0 = std::chrono::steady_clock::now();
  rt::execute_task_graph(g, threads, [&](int id) {
    volatile double sink = 0.0;
    const long spins = static_cast<long>(flops[id] / scale) + 1;
    for (long s = 0; s < spins; ++s) sink = sink + static_cast<double>(s);
    (void)sink;
  }, eopt);
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void print_fuzz_variance_table() {
  std::printf("\nFuzzed-schedule makespan variance (real DAG runtime, "
              "spin-per-flop bodies,\n8 threads, 10 seeds; spread = "
              "(max-min)/mean)\n");
  print_rule(84);
  std::printf("%-10s %-20s %10s %10s %10s %9s\n", "Matrix", "graph",
              "min ms", "mean ms", "max ms", "spread");
  print_rule(84);
  for (const char* name : {"orsreg1", "goodwin"}) {
    NamedMatrix nm = make_named_matrix(name);
    for (auto kind : {taskgraph::GraphKind::kEforest,
                      taskgraph::GraphKind::kSStarProgramOrder,
                      taskgraph::GraphKind::kSStar}) {
      Options opt;
      opt.task_graph = kind;
      Analysis an = analyze(nm.a, opt);
      double lo = 1e300, hi = 0.0, sum = 0.0;
      const int kSeeds = 10;
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        double ms = fuzzed_makespan_ms(an.graph, an.costs.flops, 8, seed);
        lo = std::min(lo, ms);
        hi = std::max(hi, ms);
        sum += ms;
      }
      double mean = sum / kSeeds;
      std::printf("%-10s %-20s %10.2f %10.2f %10.2f %8.1f%%\n", name,
                  taskgraph::to_string(kind).c_str(), lo, mean, hi,
                  100.0 * (hi - lo) / mean);
    }
  }
  print_rule(84);
}

void print_table() {
  std::printf("\nAblation A5: scheduling policy x placement (P=8, simulated "
              "seconds)\n");
  const auto kinds = {taskgraph::GraphKind::kEforest,
                      taskgraph::GraphKind::kSStarProgramOrder,
                      taskgraph::GraphKind::kSStar};
  print_rule(100);
  std::printf("%-10s %-20s %12s %12s %12s %12s\n", "Matrix", "graph", "CP/free",
              "FIFO/free", "CP/owner", "FIFO/owner");
  print_rule(100);
  for (const char* name : {"orsreg1", "goodwin"}) {
    NamedMatrix nm = make_named_matrix(name);
    for (auto kind : kinds) {
      Options opt;
      opt.task_graph = kind;
      Analysis an = analyze(nm.a, opt);
      rt::MachineModel m = rt::MachineModel::origin2000(8);
      auto run = [&](rt::SchedulePolicy pol, rt::MappingPolicy map) {
        return rt::simulate(an.graph, an.costs, m, pol, false, map).makespan;
      };
      std::printf("%-10s %-20s %12.3f %12.3f %12.3f %12.3f\n", name,
                  taskgraph::to_string(kind).c_str(),
                  run(rt::SchedulePolicy::kCriticalPath,
                      rt::MappingPolicy::kFreeSchedule),
                  run(rt::SchedulePolicy::kFifo, rt::MappingPolicy::kFreeSchedule),
                  run(rt::SchedulePolicy::kCriticalPath,
                      rt::MappingPolicy::kOwnerComputes),
                  run(rt::SchedulePolicy::kFifo,
                      rt::MappingPolicy::kOwnerComputes));
    }
  }
  print_rule(100);
  print_fuzz_variance_table();
}

}  // namespace
}  // namespace plu::bench

PLU_BENCH_MAIN(plu::bench::print_table)
