// The three workloads: their inputs (a pure function of the workload seed),
// the one solver configuration every run uses, and the end-to-end loops.
// traced.cpp replays the same inputs layer by layer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sparse_lu.h"
#include "harness.h"
#include "service/solver_service.h"

namespace perfbench {

/// Worker threads everywhere (the host's core count).
constexpr int kThreads = 4;

/// Library defaults except the threaded numeric phase on kThreads workers.
plu::NumericOptions numeric_options();

/// A metric as plu_perfbench prints it.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What one run reports: every op attempted, the ops whose output check
/// failed, and the metrics.
struct Result {
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  void add(const std::string& name, const std::string& unit, double value) {
    metrics.push_back({name, unit, value});
  }
};

/// Deterministic right-hand side in [-1, 1).
std::vector<double> make_rhs(int n, std::uint64_t seed);

/// Mixes a workload seed with a stream id and an op index.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t op);

/// The output check every op passes: relative residual <= 1e-10.
bool residual_ok(const plu::CscMatrix& a, const std::vector<double>& x,
                 const std::vector<double>& b);

/// One op's input.
struct OpInput {
  plu::CscMatrix a;
  std::vector<double> b;
  int pattern = -1;  // service: hot pattern index, -1 for a one-off pattern
};

// ---- cold: a fresh pattern per op ----------------------------------------
OpInput cold_op(std::uint64_t seed, long op);

// ---- refactor: one forest pattern, new values per op ---------------------
plu::CscMatrix refactor_base(std::uint64_t seed);
OpInput refactor_op(const plu::CscMatrix& base, std::uint64_t seed, long op);

// ---- service: 80% hot patterns with fresh values, 20% one-off patterns ---
constexpr double kServiceRate = 8.0;    // offered requests per second
constexpr double kServiceLimitS = 0.5;  // latency limit

/// grid3d 10^3, power_law(1500) and multiphysics3d(6,6,6,3), in that order;
/// the same patterns (and base values) for every seed.
std::vector<plu::CscMatrix> service_hot_patterns();
/// Request i: fresh values on a hot pattern, or a one-off pattern.
OpInput service_request(const std::vector<plu::CscMatrix>& hot,
                        std::uint64_t seed, long i);

/// Everything one open-loop pass observed.
struct ServiceRun {
  std::vector<OpenLoopSample> samples;
  std::vector<plu::service::RequestResult> results;
  plu::service::ServiceStats stats;
  double window_s = 0.0;  // schedule start to the last completion
};

/// Offers `count` requests at kServiceRate to `svc` from the calling thread
/// (plus one collector thread that stamps completions) and waits for all.
ServiceRun run_service_loop(plu::service::SolverService& svc,
                            const std::vector<plu::CscMatrix>& hot,
                            std::uint64_t seed, long count);

/// Submits every hot pattern once and waits: the service cache then holds
/// their analyses.
void warm_service(plu::service::SolverService& svc,
                  const std::vector<plu::CscMatrix>& hot, std::uint64_t seed);

/// Tail percentile each workload reports (see README.md).
double tail_percentile(const std::string& workload);

/// Requests one service run offers: the rate over the run length, but never
/// fewer than the tail rule needs.
long service_count(double seconds);

/// The end-to-end run (tracing off): setup_s, op_p50_ms, op_tail_ms,
/// ops_per_s, peak_rss_mb.
Result run_end_to_end(const std::string& workload, std::uint64_t seed,
                      double seconds);

/// The traced run: per-layer metrics.  Throws when a replay differs from
/// the library.  With a non-empty `spans_path` every span is written there
/// as JSON lines when the run ends.
Result run_traced(const std::string& workload, std::uint64_t seed,
                  double seconds, const std::string& spans_path);

/// Peak resident set of this process, MiB.
double peak_rss_mb();

}  // namespace perfbench
