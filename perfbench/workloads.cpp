#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "matrix/generators.h"

namespace perfbench {

using plu::CscMatrix;
namespace svc = plu::service;

plu::NumericOptions numeric_options() {
  plu::NumericOptions opt;
  opt.mode = plu::ExecutionMode::kThreaded;
  opt.threads = kThreads;
  return opt;
}

std::vector<double> make_rhs(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream,
                       std::uint64_t op) {
  // splitmix64 over the three words: nearby seeds give unrelated inputs.
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xBF58476D1CE4E5B9ull +
                    op * 0x94D049BB133111EBull + 0x2545F4914F6CDD1Dull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

bool residual_ok(const CscMatrix& a, const std::vector<double>& x,
                 const std::vector<double>& b) {
  if (x.size() != b.size()) return false;
  const double r = plu::relative_residual(a, x, b);
  return r <= 1e-10;  // also false for NaN
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Stream ids for mix_seed, one per kind of input.
enum Stream : std::uint64_t {
  kColdPattern = 1,
  kColdRhs,
  kForestDomain,
  kForestValues,
  kForestRhs,
  kHotPattern,
  kServiceMix,
  kServiceValues,
  kServiceRhs,
  kMissPattern,
  kWarmup,
};

OpInput cold_op(std::uint64_t seed, long op) {
  const auto i = static_cast<std::uint64_t>(op);
  plu::gen::StencilOptions g;
  g.drop_probability = 0.1;
  g.seed = mix_seed(seed, kColdPattern, i);
  OpInput in;
  in.a = plu::gen::grid3d(14, 14, 14, g);
  in.b = make_rhs(in.a.rows(), mix_seed(seed, kColdRhs, i));
  return in;
}

CscMatrix refactor_base(std::uint64_t seed) {
  std::vector<CscMatrix> domains;
  for (int d = 0; d < 16; ++d) {
    plu::gen::StencilOptions g;
    g.seed = mix_seed(seed, kForestDomain, d);
    domains.push_back(plu::gen::multiphysics3d(8, 8, 4, 4, g));
  }
  return plu::gen::block_diag(domains);
}

OpInput refactor_op(const CscMatrix& base, std::uint64_t seed, long op) {
  const auto i = static_cast<std::uint64_t>(op);
  OpInput in;
  in.a = plu::gen::perturb_values(base, 0.1, mix_seed(seed, kForestValues, i));
  in.b = make_rhs(in.a.rows(), mix_seed(seed, kForestRhs, i));
  return in;
}

std::vector<CscMatrix> service_hot_patterns() {
  // Fixed, like the matrices a deployed service knows; the workload seed
  // draws their values, the request order and the one-off patterns.  (With
  // seeded patterns the cache warm-up cost varied by a fifth between seeds,
  // and setup_s inherited that.)
  constexpr std::uint64_t kFixed = 0;
  plu::gen::StencilOptions g;
  g.seed = mix_seed(kFixed, kHotPattern, 0);
  std::vector<CscMatrix> hot;
  hot.push_back(plu::gen::grid3d(10, 10, 10, g));
  hot.push_back(plu::gen::power_law(1500, 4.0, 2.0, 0.6, 0.8,
                                    mix_seed(kFixed, kHotPattern, 1)));
  g.seed = mix_seed(kFixed, kHotPattern, 2);
  hot.push_back(plu::gen::multiphysics3d(6, 6, 6, 3, g));
  return hot;
}

OpInput service_request(const std::vector<CscMatrix>& hot, std::uint64_t seed,
                        long i) {
  // Every block of ten requests holds exactly 4 grid3d, 2 multiphysics,
  // 2 power-law and 2 one-off requests, in a seeded order.  Fixed shares
  // keep the percentiles inside one class from seed to seed: the p50 falls
  // among the grid3d requests (20-60%), the p90 among the one-off ones.
  static constexpr int kBlock[10] = {0, 0, 0, 0, 2, 2, 1, 1, -1, -1};
  const auto op = static_cast<std::uint64_t>(i);
  int order[10];
  std::copy(std::begin(kBlock), std::end(kBlock), order);
  std::shuffle(order, order + 10,
               std::mt19937_64(mix_seed(seed, kServiceMix, op / 10)));
  OpInput r;
  r.pattern = order[op % 10];
  if (r.pattern < 0) {
    r.a = plu::gen::random_sparse(1000, 3.0, 0.5, 0.7,
                                  mix_seed(seed, kMissPattern, op));
  } else {
    r.a = plu::gen::perturb_values(hot[r.pattern], 0.1,
                                   mix_seed(seed, kServiceValues, op));
  }
  r.b = make_rhs(r.a.rows(), mix_seed(seed, kServiceRhs, op));
  return r;
}

void warm_service(svc::SolverService& s, const std::vector<CscMatrix>& hot,
                  std::uint64_t seed) {
  for (std::size_t p = 0; p < hot.size(); ++p) {
    std::vector<double> b = make_rhs(hot[p].rows(), mix_seed(seed, kWarmup, p));
    svc::RequestResult r = s.submit(hot[p], b)->wait();
    if (r.state != svc::RequestState::kDone || !residual_ok(hot[p], r.x, b)) {
      throw std::runtime_error("service warm-up request failed");
    }
  }
}

ServiceRun run_service_loop(svc::SolverService& s,
                            const std::vector<CscMatrix>& hot,
                            std::uint64_t seed, long count) {
  std::vector<OpInput> reqs;
  reqs.reserve(count);
  for (long i = 0; i < count; ++i) reqs.push_back(service_request(hot, seed, i));

  ServiceRun run;
  run.samples.assign(count, {});
  std::vector<std::shared_ptr<svc::Request>> handles(count);

  // The collector stamps each completion as it happens (requests finish out
  // of order, so waiting on them in submit order would misdate them).
  std::mutex mu;
  long submitted = 0;  // guarded by mu
  std::atomic<bool> generator_done{false};
  const Clock::time_point t0 = Clock::now();
  const auto since_t0 = [&t0] { return seconds_since(t0); };
  std::thread collector([&] {
    std::vector<long> open;
    long seen = 0;
    while (true) {
      bool gen_finished = generator_done.load();
      {
        std::lock_guard<std::mutex> lock(mu);
        for (; seen < submitted; ++seen) open.push_back(seen);
      }
      for (std::size_t k = 0; k < open.size();) {
        if (handles[open[k]]->done()) {
          run.samples[open[k]].done = since_t0();
          open[k] = open.back();
          open.pop_back();
        } else {
          ++k;
        }
      }
      if (gen_finished && open.empty()) {
        std::lock_guard<std::mutex> lock(mu);
        if (seen == submitted) break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  try {
    for (long i = 0; i < count; ++i) {
      const double due = due_time(i, kServiceRate);
      std::this_thread::sleep_until(
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(due)));
      run.samples[i].due = due;
      run.samples[i].sent = since_t0();
      std::shared_ptr<svc::Request> h = s.submit(reqs[i].a, reqs[i].b);
      std::lock_guard<std::mutex> lock(mu);
      handles[i] = std::move(h);
      ++submitted;
    }
  } catch (...) {
    generator_done = true;
    collector.join();
    throw;
  }
  generator_done = true;
  collector.join();

  run.results.reserve(count);
  for (long i = 0; i < count; ++i) {
    svc::RequestResult r = handles[i]->wait();
    run.samples[i].ok = r.state == svc::RequestState::kDone &&
                        residual_ok(reqs[i].a, r.x, reqs[i].b);
    run.window_s = std::max(run.window_s, run.samples[i].done);
    run.results.push_back(std::move(r));
  }
  run.stats = s.stats();
  return run;
}

double tail_percentile(const std::string& workload) {
  return workload == "cold" ? 75.0 : 90.0;
}

long service_count(double seconds) {
  return std::max(static_cast<long>(std::lround(kServiceRate * seconds)),
                  min_ops_for_tail(tail_percentile("service")));
}

namespace {

/// Set-up runs at least kSetupReps times and for at least kSetupSeconds;
/// setup_s is the median repetition.  The time floor makes a cheap set-up
/// sample the host's speed over seconds, not over one moment.
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 8.0;

/// `once(r)` performs set-up repetition r and returns the seconds it timed.
template <typename Once>
double median_setup(Once&& once) {
  std::vector<double> reps;
  const Clock::time_point t0 = Clock::now();
  while (static_cast<int>(reps.size()) < kSetupReps ||
         seconds_since(t0) < kSetupSeconds) {
    reps.push_back(once(static_cast<int>(reps.size())));
  }
  return median(reps);
}

struct OpOutcome {
  double seconds = 0.0;
  bool ok = false;
};

/// Closed loop with one caller: runs ops until `seconds` have passed AND
/// the tail percentile has ten ops beyond it.
template <typename Op>
std::vector<OpOutcome> closed_loop(double seconds, long min_ops, Op&& op,
                                   double* wall) {
  std::vector<OpOutcome> out;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  while (elapsed < seconds || static_cast<long>(out.size()) < min_ops) {
    out.push_back(op(static_cast<long>(out.size())));
    elapsed = seconds_since(t0);
  }
  *wall = elapsed;
  return out;
}

/// Latency metrics of a closed loop; a failed op counts as infinitely slow.
void add_closed_loop_metrics(Result& res, const std::vector<OpOutcome>& ops,
                             double wall, double tail_p) {
  std::vector<double> lat;
  for (const OpOutcome& o : ops) {
    lat.push_back(o.ok ? o.seconds * 1e3 : HUGE_VAL);
    ++res.attempted;
    if (!o.ok) ++res.failed;
  }
  res.add("op_p50_ms", "ms", median(lat));
  res.add("op_tail_ms", "ms", percentile(lat, tail_p));
  res.add("ops_per_s", "1/s",
          static_cast<double>(ops.size() - res.failed) / wall);
}

Result run_cold(std::uint64_t seed, double seconds) {
  const plu::NumericOptions nopt = numeric_options();
  const auto one_op = [&](const OpInput& in) {
    const Clock::time_point t = Clock::now();
    plu::SparseLU lu;
    lu.numeric_options() = nopt;
    std::vector<double> x = lu.factorize_and_solve(in.a, in.b);
    OpOutcome o;
    o.seconds = seconds_since(t);
    o.ok = plu::factor_usable(lu.factor_status()) && residual_ok(in.a, x, in.b);
    return o;
  };

  // Every set-up repeats one warm-up op on the same pattern: the spread of
  // setup_s is then the host's, not that of a handful of patterns.
  const double setup_s = median_setup([&](int) {
    const Clock::time_point t = Clock::now();
    if (!one_op(cold_op(mix_seed(seed, kWarmup, 0), -1)).ok) {
      throw std::runtime_error("cold warm-up op failed");
    }
    return seconds_since(t);
  });

  double wall = 0.0;
  std::vector<OpOutcome> ops = closed_loop(
      seconds, min_ops_for_tail(tail_percentile("cold")),
      [&](long i) { return one_op(cold_op(seed, i)); }, &wall);

  Result res;
  res.add("setup_s", "s", setup_s);
  add_closed_loop_metrics(res, ops, wall, tail_percentile("cold"));
  return res;
}

Result run_refactor(std::uint64_t seed, double seconds) {
  plu::SparseLU lu;
  CscMatrix base;
  const double setup_s = median_setup([&](int r) {
    const Clock::time_point t = Clock::now();
    base = refactor_base(seed);
    lu = plu::SparseLU();
    lu.numeric_options() = numeric_options();
    lu.analyze(base);
    std::vector<double> b = make_rhs(base.rows(), mix_seed(seed, kWarmup, r));
    lu.factorize(base);
    std::vector<double> x = lu.solve(b);
    if (!residual_ok(base, x, b) || lu.analyze_count() != 1) {
      throw std::runtime_error("refactor warm-up failed");
    }
    return seconds_since(t);
  });

  double wall = 0.0;
  std::vector<OpOutcome> ops = closed_loop(
      seconds, min_ops_for_tail(tail_percentile("refactor")),
      [&](long i) {
        const OpInput in = refactor_op(base, seed, i);
        const Clock::time_point t = Clock::now();
        lu.factorize(in.a);
        std::vector<double> x;
        const bool usable = plu::factor_usable(lu.factor_status());
        if (usable) x = lu.solve(in.b);
        OpOutcome o;
        o.seconds = seconds_since(t);
        o.ok = usable && lu.analyze_count() == 1 && residual_ok(in.a, x, in.b);
        return o;
      },
      &wall);

  Result res;
  res.add("setup_s", "s", setup_s);
  add_closed_loop_metrics(res, ops, wall, tail_percentile("refactor"));
  return res;
}

Result run_service(std::uint64_t seed, double seconds) {
  std::unique_ptr<svc::SolverService> s;
  std::vector<CscMatrix> hot;
  const double setup_s = median_setup([&](int) {
    s.reset();  // the previous repetition's service stops untimed
    const Clock::time_point t = Clock::now();
    svc::ServiceOptions opt;
    opt.threads = kThreads;
    s = std::make_unique<svc::SolverService>(opt);
    hot = service_hot_patterns();
    warm_service(*s, hot, seed);
    return seconds_since(t);
  });

  ServiceRun run = run_service_loop(*s, hot, seed, service_count(seconds));

  Result res;
  std::vector<double> lat;
  for (const OpenLoopSample& o : run.samples) {
    lat.push_back(o.ok ? latency_from_due(o) * 1e3 : HUGE_VAL);
    ++res.attempted;
    if (!o.ok) ++res.failed;
  }
  res.add("setup_s", "s", setup_s);
  res.add("op_p50_ms", "ms", median(lat));
  res.add("op_tail_ms", "ms", percentile(lat, tail_percentile("service")));
  res.add("ops_per_s", "1/s",
          static_cast<double>(goodput_count(run.samples, kServiceLimitS)) /
              run.window_s);
  return res;
}

}  // namespace

Result run_end_to_end(const std::string& workload, std::uint64_t seed,
                      double seconds) {
  Result res;
  if (workload == "cold") {
    res = run_cold(seed, seconds);
  } else if (workload == "refactor") {
    res = run_refactor(seed, seconds);
  } else if (workload == "service") {
    res = run_service(seed, seconds);
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  res.add("peak_rss_mb", "MiB", peak_rss_mb());
  return res;
}

}  // namespace perfbench
