// Concurrency-correctness harness: the footprint race checker (the dynamic
// cross-check of Theorem 4), schedule fuzzing, and their
// integration with the numeric factorization.
//
// The load-bearing assertions:
//   * RaceChecker reports ZERO races on the paper's eforest graph across
//     many matrices and >= 20 fuzz seeds (locked and, where the analysis
//     proves disjointness, lock-free) -- Theorem 4, validated at runtime;
//   * removing a single rule-4 edge U(i,k) -> U(i',k) whose endpoint
//     footprints overlap makes the checker fire -- the harness detects the
//     bug class it exists for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/analysis.h"
#include "core/numeric.h"
#include "matrix/generators.h"
#include "runtime/race_checker.h"
#include "taskgraph/analysis.h"
#include "test_helpers.h"

namespace plu {
namespace {

// ---------------------------------------------------------------------------
// RaceChecker unit semantics on hand-built graphs.

TEST(RaceChecker, UnorderedConflictsAreFlaggedOrderedAreNot) {
  // Diamond: 0 -> {1, 2} -> 3; tasks 1 and 2 are unordered.
  std::vector<std::vector<int>> succ = {{1, 2}, {3}, {3}, {}};
  rt::RaceChecker rc(4);
  rc.write(0, 7);
  rc.read(1, 7);   // ordered after 0: fine
  rc.write(3, 7);  // ordered after everything: fine
  std::vector<rt::FootprintRace> races = rc.check(succ);
  EXPECT_TRUE(races.empty());

  rc.write(1, 7);  // now 1 and 2 conflict if 2 touches 7
  rc.read(2, 7);
  races = rc.check(succ);
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(std::min(races[0].task_a, races[0].task_b), 1);
  EXPECT_EQ(std::max(races[0].task_a, races[0].task_b), 2);
  EXPECT_EQ(races[0].resource, 7);
  EXPECT_FALSE(to_string(races[0]).empty());
}

TEST(RaceChecker, ReadReadDoesNotConflict) {
  std::vector<std::vector<int>> succ = {{}, {}};
  rt::RaceChecker rc(2);
  rc.read(0, 3);
  rc.read(1, 3);
  EXPECT_TRUE(rc.check(succ).empty());
}

TEST(RaceChecker, LockedWritesSameLockCommuteDifferentLocksRace) {
  std::vector<std::vector<int>> succ = {{}, {}};
  rt::RaceChecker rc(2);
  rc.locked_write(0, 5, /*lock=*/9);
  rc.locked_write(1, 5, /*lock=*/9);
  EXPECT_TRUE(rc.check(succ).empty());

  rc.reset(2);
  rc.locked_write(0, 5, /*lock=*/9);
  rc.locked_write(1, 5, /*lock=*/8);
  EXPECT_EQ(rc.check(succ).size(), 1u);

  // A locked write still conflicts with an unlocked read of the resource.
  rc.reset(2);
  rc.locked_write(0, 5, /*lock=*/9);
  rc.read(1, 5);
  EXPECT_EQ(rc.check(succ).size(), 1u);
}

TEST(RaceChecker, StrongestAccessPerTaskWins) {
  // Task 0 both reads and writes the resource; the write must dominate.
  std::vector<std::vector<int>> succ = {{}, {}};
  rt::RaceChecker rc(2);
  rc.read(0, 1);
  rc.write(0, 1);
  rc.read(1, 1);
  EXPECT_EQ(rc.check(succ).size(), 1u);
}

TEST(RaceChecker, GraphSizeMismatchThrows) {
  rt::RaceChecker rc(3);
  std::vector<std::vector<int>> succ = {{}, {}};
  EXPECT_THROW(rc.check(succ), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Reachability (the checker's ordering primitive).

TEST(Reachability, MatchesBfsOnTaskGraphs) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    taskgraph::Reachability reach(an.graph);
    ASSERT_EQ(reach.size(), an.graph.size());
    // Spot-check against the BFS oracle on a deterministic subset.
    const int n = an.graph.size();
    const int stride = std::max(1, n / 17);
    for (int u = 0; u < n; u += stride) {
      for (int v = 0; v < n; v += stride) {
        EXPECT_EQ(reach.reaches(u, v), taskgraph::reaches(an.graph, u, v))
            << u << " -> " << v;
      }
    }
  }
}

TEST(Reachability, ThrowsOnCycle) {
  std::vector<std::vector<int>> succ = {{1}, {0}};
  EXPECT_THROW(taskgraph::Reachability r(succ), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Property test: random matrices x fuzz seeds.  Threaded factorization
// (locked, and lock-free when the analysis allows it) matches the
// sequential reference and records zero footprint races.

std::vector<CscMatrix> harness_matrices() {
  std::vector<CscMatrix> out;
  gen::StencilOptions g;
  for (std::uint64_t s = 0; s < 10; ++s) {
    g.seed = 100 + s;
    g.convection = 0.3 + 0.05 * s;
    out.push_back(gen::grid2d(4 + static_cast<int>(s), 5, g));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    g.seed = 200 + s;
    g.drop_probability = 0.1;
    out.push_back(gen::grid3d(3, 3, 2 + static_cast<int>(s % 3), g));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(gen::banded(40 + 3 * static_cast<int>(s), {-7, -3, -1, 1, 3, 7},
                              0.7, 0.7, 300 + s));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(
        gen::random_sparse(30 + 2 * static_cast<int>(s), 2.5, 0.5, 0.8, 400 + s));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(gen::circuit(45 + 2 * static_cast<int>(s), 2, 2.5, 500 + s));
  }
  return out;
}

TEST(RaceHarness, FuzzedThreadedMatchesSequentialWithZeroRaces) {
  const std::vector<CscMatrix> pool = harness_matrices();
  ASSERT_GE(pool.size(), 50u);
  int lockfree_covered = 0;
  for (std::size_t m = 0; m < pool.size(); ++m) {
    const CscMatrix& a = pool[m];
    // Minimum-degree (the paper's ordering; bushy forests, locks needed
    // because amalgamation breaks block-level disjointness) on every
    // matrix; natural ordering (path-like forests, block disjointness
    // PROVEN, lock-free honored) on a rotating subset to keep runtime down.
    Options aopt;
    if (m % 3 == 0) aopt.ordering = ordering::Method::kNatural;
    Analysis an = analyze(a, aopt);
    std::vector<double> b = test::random_vector(a.rows(), 7000 + m);

    NumericOptions seq;
    seq.mode = ExecutionMode::kSequential;
    Factorization ref(an, a, seq);
    if (ref.singular()) continue;  // a degenerate draw proves nothing here
    std::vector<double> xref = ref.solve(b);
    ASSERT_LT(relative_residual(a, xref, b), 1e-8) << "matrix " << m;

    for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
      NumericOptions thr;
      thr.mode = ExecutionMode::kThreaded;
      thr.threads = 4;
      thr.fuzz_schedule = true;
      thr.fuzz_seed = seed;
      thr.fuzz_max_delay_us = 5;
      thr.check_races = true;

      // Locked execution (the default, valid for every structure).
      {
        Factorization f(an, a, thr);
        ASSERT_TRUE(f.race_checked());
        EXPECT_TRUE(f.races().empty())
            << "matrix " << m << " seed " << seed << ": "
            << to_string(f.races().front());
        std::vector<double> x = f.solve(b);
        for (int i = 0; i < a.rows(); ++i) {
          EXPECT_NEAR(x[i], xref[i], 1e-8) << "matrix " << m << " seed " << seed;
        }
      }
      // Lock-free execution, honored only when the analysis proved the
      // unordered footprints disjoint -- exactly what the checker verifies.
      if (an.blocks.lockfree_safe) {
        thr.use_column_locks = false;
        Factorization f(an, a, thr);
        ASSERT_TRUE(f.race_checked());
        EXPECT_TRUE(f.races().empty())
            << "matrix " << m << " seed " << seed << " (lock-free): "
            << to_string(f.races().front());
        std::vector<double> x = f.solve(b);
        for (int i = 0; i < a.rows(); ++i) {
          EXPECT_NEAR(x[i], xref[i], 1e-8)
              << "matrix " << m << " seed " << seed << " (lock-free)";
        }
        ++lockfree_covered;
      }
    }
  }
  // The lock-free arm must actually have been exercised.
  EXPECT_GT(lockfree_covered, 0);
}

// The acceptance gate: >= 20 fuzz seeds on the paper-graph factorization,
// zero races on every one -- once with the paper's minimum-degree ordering
// (locked updates), once with natural ordering where block-level
// disjointness is proven and the execution is genuinely lock-free.
TEST(RaceHarness, TwentyFuzzSeedsZeroRacesOnEforestGraph) {
  gen::StencilOptions g;
  g.seed = 42;
  g.convection = 0.5;
  const CscMatrix a = gen::grid2d(8, 8, g);
  const std::vector<double> b = test::random_vector(a.rows(), 99);

  bool lockfree_arm = false;
  for (ordering::Method method :
       {ordering::Method::kMinimumDegreeAtA, ordering::Method::kNatural}) {
    Options aopt;
    aopt.ordering = method;
    Analysis an = analyze(a, aopt);
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      NumericOptions opt;
      opt.mode = ExecutionMode::kThreaded;
      opt.threads = 4;
      opt.fuzz_schedule = true;
      opt.fuzz_seed = seed;
      opt.fuzz_max_delay_us = 10;
      opt.check_races = true;
      opt.use_column_locks = !an.blocks.lockfree_safe;
      Factorization f(an, a, opt);
      ASSERT_TRUE(f.race_checked());
      EXPECT_TRUE(f.races().empty())
          << "seed " << seed << ": " << to_string(f.races().front());
      EXPECT_LT(relative_residual(a, f.solve(b), b), 1e-9) << "seed " << seed;
    }
    if (an.blocks.lockfree_safe) lockfree_arm = true;
  }
  EXPECT_TRUE(lockfree_arm);  // natural ordering must prove disjointness here
}

// The same gate on the unfuzzed work-stealing schedule: 20 repeats of real
// threaded execution, each one race-checked and residual-checked.
// Stealing explores different interleavings run to run (randomized victim
// selection), so the repeats are the analogue of the fuzz seeds above.
TEST(RaceHarness, TwentyWorkStealingRunsZeroRacesOnEforestGraph) {
  gen::StencilOptions g;
  g.seed = 42;
  g.convection = 0.5;
  const CscMatrix a = gen::grid2d(8, 8, g);
  const std::vector<double> b = test::random_vector(a.rows(), 99);

  bool lockfree_arm = false;
  for (ordering::Method method :
       {ordering::Method::kMinimumDegreeAtA, ordering::Method::kNatural}) {
    Options aopt;
    aopt.ordering = method;
    Analysis an = analyze(a, aopt);
    for (int rep = 0; rep < 20; ++rep) {
      NumericOptions opt;
      opt.mode = ExecutionMode::kThreaded;
      opt.threads = 4;
      opt.check_races = true;
      opt.use_column_locks = !an.blocks.lockfree_safe;
      Factorization f(an, a, opt);
      ASSERT_TRUE(f.race_checked());
      EXPECT_TRUE(f.races().empty())
          << "rep " << rep << ": " << to_string(f.races().front());
      EXPECT_LT(relative_residual(a, f.solve(b), b), 1e-9) << "rep " << rep;
    }
    if (an.blocks.lockfree_safe) lockfree_arm = true;
  }
  EXPECT_TRUE(lockfree_arm);
}

// ---------------------------------------------------------------------------
// The checker must FIRE on a deliberately broken dependence graph: drop one
// U(i,k) -> U(i',k) chain edge whose endpoint write footprints overlap and
// the two updates become unordered-yet-conflicting.

/// Write footprint of Update(k, j): row blocks {k} + l_blocks(k), column j.
std::vector<int> update_write_rows(const Analysis& an, int k) {
  std::vector<int> rows = an.blocks.l_blocks(k);
  rows.push_back(k);
  return rows;
}

bool write_rows_overlap(const Analysis& an, int k1, int k2) {
  std::vector<int> r1 = update_write_rows(an, k1);
  std::vector<int> r2 = update_write_rows(an, k2);
  for (int a : r1) {
    for (int b : r2) {
      if (a == b) return true;
    }
  }
  return false;
}

TEST(RaceHarness, CheckerFiresOnBrokenDependenceGraph) {
  bool fired = false;
  for (const CscMatrix& a : harness_matrices()) {
    // Natural ordering preserves path-like eforests on the banded/grid
    // matrices in the pool, which is what makes lockfree_safe attainable.
    Options aopt;
    aopt.ordering = ordering::Method::kNatural;
    Analysis an = analyze(a, aopt);
    if (!an.blocks.lockfree_safe) continue;  // need the lock-free run

    // Find a U(i,k) -> U(i',k) edge between updates into the same target
    // column whose write footprints overlap.
    int drop_u = -1, drop_v = -1;
    const taskgraph::TaskList& tasks = an.graph.tasks;
    for (int u = 0; u < an.graph.size() && drop_u < 0; ++u) {
      if (tasks.task(u).kind != taskgraph::TaskKind::kUpdate) continue;
      for (int v : an.graph.succ[u]) {
        if (tasks.task(v).kind != taskgraph::TaskKind::kUpdate) continue;
        if (tasks.task(v).j != tasks.task(u).j) continue;
        if (!write_rows_overlap(an, tasks.task(u).k, tasks.task(v).k)) continue;
        drop_u = u;
        drop_v = v;
        break;
      }
    }
    if (drop_u < 0) continue;

    // Break the graph: remove the edge, leaving the two updates unordered.
    Analysis broken = an;
    auto& succ = broken.graph.succ[drop_u];
    succ.erase(std::find(succ.begin(), succ.end(), drop_v));
    broken.graph.indegree[drop_v] -= 1;

    NumericOptions opt;
    opt.mode = ExecutionMode::kGraphSequential;  // deterministic; footprints
    opt.check_races = true;                      // are what matters here
    opt.use_column_locks = false;
    Factorization f(broken, a, opt);
    ASSERT_TRUE(f.race_checked());
    ASSERT_FALSE(f.races().empty());
    // The dropped pair itself must be among the reported races.
    bool found_pair = false;
    for (const rt::FootprintRace& r : f.races()) {
      if (std::min(r.task_a, r.task_b) == std::min(drop_u, drop_v) &&
          std::max(r.task_a, r.task_b) == std::max(drop_u, drop_v)) {
        found_pair = true;
      }
    }
    EXPECT_TRUE(found_pair);
    fired = true;
    break;
  }
  ASSERT_TRUE(fired) << "no matrix in the pool admitted a breakable edge";
}

// ---------------------------------------------------------------------------
// 2-D factorization: the same checker over the 2-D task graph.

TEST(RaceHarness, Numeric2DThreadedReportsZeroRaces) {
  for (int mi : {0, 2}) {
    const CscMatrix a = test::small_matrices()[mi];
    Options aopt;
    aopt.layout = Layout::k2D;
    Analysis an = analyze(a, aopt);
    NumericOptions opt;
    opt.mode = ExecutionMode::kThreaded;
    opt.threads = 4;
    opt.check_races = true;
    Factorization f(an, a, opt);
    EXPECT_EQ(f.layout(), Layout::k2D);
    EXPECT_TRUE(f.race_checked());
    EXPECT_TRUE(f.races().empty())
        << "matrix " << mi << ": " << to_string(f.races().front());
  }
}

TEST(RaceHarness, Numeric2DFuzzedSchedulesReportZeroRaces) {
  // Schedule fuzzing over the block-granularity graph: many legal
  // interleavings of FD/FL/CU/UB, all race-free (the block analogue of
  // Theorem 4's disjointness).
  const CscMatrix a = test::small_matrices()[0];
  Options aopt;
  aopt.layout = Layout::k2D;
  Analysis an = analyze(a, aopt);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    NumericOptions opt;
    opt.mode = ExecutionMode::kThreaded;
    opt.threads = 4;
    opt.check_races = true;
    opt.fuzz_schedule = true;
    opt.fuzz_seed = seed;
    Factorization f(an, a, opt);
    EXPECT_TRUE(f.races().empty())
        << "seed " << seed << ": " << to_string(f.races().front());
    EXPECT_FALSE(f.singular());
  }
}

}  // namespace
}  // namespace plu
