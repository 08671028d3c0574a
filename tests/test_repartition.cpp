// Block plan and the one numeric execution path (symbolic/repartition.h,
// DESIGN.md §16).
//
// The contract under test: every update runs the plan's structural row
// runs, routed to a gemm engine by gemm's own auto predicates, and the
// factors of every execution mode -- the right-looking sequential loop,
// the task graph replayed on one thread, and the threaded task graph at
// any thread count, fuzzed or not -- are BITWISE identical, in either
// layout, under any option rotation.  Enforced over the 50-matrix
// property sweep and four production shapes at 4 threads, plus structural
// invariants of the plan itself, transpose consistency of the block
// structure after plan construction, the fuzzed-schedule executor and the
// race checker.  Carries the `sanitize` ctest label so TSan executes the
// threaded schedules.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "blas/level3.h"
#include "core/sparse_lu.h"
#include "matrix/generators.h"
#include "symbolic/repartition.h"
#include "test_helpers.h"

namespace plu {
namespace {

// Same five matrix classes x ten seeds as the race harness and the
// refactorization gate: convected 2-D grids, dropped 3-D grids, banded, uniform
// random, circuit.
std::vector<CscMatrix> sweep_matrices() {
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
    out.push_back(gen::banded(40 + 3 * static_cast<int>(s),
                              {-7, -3, -1, 1, 3, 7}, 0.7, 0.7, 300 + s));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(gen::random_sparse(30 + 2 * static_cast<int>(s), 2.5, 0.5,
                                     0.8, 400 + s));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(gen::circuit(45 + 2 * static_cast<int>(s), 2, 2.5, 500 + s));
  }
  return out;
}

// Bitwise factor identity: status, pivots, growth and every stored value.
void expect_same_factorization(const Factorization& ref,
                               const Factorization& co,
                               const std::string& what) {
  if (!factor_usable(ref.status())) {
    EXPECT_FALSE(factor_usable(co.status())) << what;
    return;
  }
  ASSERT_EQ(ref.status(), co.status()) << what;
  EXPECT_EQ(ref.failed_column(), co.failed_column()) << what;
  EXPECT_EQ(ref.zero_pivots(), co.zero_pivots()) << what;
  EXPECT_EQ(ref.perturbed_columns(), co.perturbed_columns()) << what;
  EXPECT_EQ(ref.growth_factor(), co.growth_factor()) << what;
  EXPECT_EQ(ref.min_pivot_ratio(), co.min_pivot_ratio()) << what;
  const int nb = ref.analysis().blocks.num_blocks();
  ASSERT_EQ(nb, co.analysis().blocks.num_blocks()) << what;
  for (int j = 0; j < nb; ++j) {
    ASSERT_EQ(ref.panel_ipiv(j), co.panel_ipiv(j)) << what << " column " << j;
    blas::ConstMatrixView r = ref.blocks().column(j);
    blas::ConstMatrixView p = co.blocks().column(j);
    ASSERT_EQ(r.rows, p.rows) << what << " column " << j;
    ASSERT_EQ(r.cols, p.cols) << what << " column " << j;
    for (int c = 0; c < r.cols; ++c) {
      ASSERT_EQ(0, std::memcmp(r.data + std::size_t(c) * r.ld,
                               p.data + std::size_t(c) * p.ld,
                               8 * std::size_t(r.rows)))
          << what << " column " << j << " panel col " << c;
    }
  }
}

// ---------------------------------------------------------------------------
// Plan structure.

TEST(Repartition, PlanStructuralInvariants) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  for (std::size_t m = 0; m < pool.size(); m += 3) {
    Options aopt;
    aopt.layout = m % 2 == 0 ? Layout::k1D : Layout::k2D;
    const Analysis an = analyze(pool[m], aopt);
    const symbolic::BlockPlan& plan = an.block_plan;
    const std::string what = "matrix " + std::to_string(m);
    ASSERT_TRUE(plan.built) << what;
    ASSERT_TRUE(plan.summary.built) << what;
    const int nb = an.blocks.num_blocks();
    ASSERT_EQ(static_cast<int>(plan.columns.size()), nb) << what;

    symbolic::BlockPlanSummary sum;
    for (int k = 0; k < nb; ++k) {
      const symbolic::ColumnPlan& cp = plan.columns[k];
      const std::string where = what + " column " + std::to_string(k);
      // The cached L list is exactly the block structure's.
      EXPECT_EQ(cp.l_list, an.blocks.l_blocks(k)) << where;
      const int nl = static_cast<int>(cp.l_list.size());
      ASSERT_EQ(static_cast<int>(cp.l_offset.size()), nl + 1) << where;
      ASSERT_EQ(static_cast<int>(cp.run_ptr.size()), nl + 1) << where;
      EXPECT_EQ(cp.l_offset.empty() ? 0 : cp.l_offset.front(), 0) << where;
      // Offsets advance by the row-block widths (row partition == column
      // partition) and close at panel_rows.
      int rows = 0;
      for (int t = 0; t < nl; ++t) {
        EXPECT_EQ(cp.l_offset[t + 1] - cp.l_offset[t],
                  an.partition.width(cp.l_list[t]))
            << where << " tile " << t;
        // Each L block's runs lie inside it.
        for (int r = cp.run_ptr[t]; r < cp.run_ptr[t + 1]; ++r) {
          const symbolic::RowRun& run = cp.row_runs[r];
          EXPECT_EQ(run.block, t) << where;
          EXPECT_GE(run.src, cp.l_offset[t]) << where;
          EXPECT_LE(run.src + run.rows, cp.l_offset[t + 1]) << where;
          rows += run.rows;
        }
      }
      EXPECT_EQ(cp.l_offset.back(), cp.panel_rows) << where;
      EXPECT_EQ(rows, cp.structural_rows) << where;
      sum.panel_blocks += nl;
      sum.row_runs += static_cast<long>(cp.row_runs.size());
      sum.rows_skipped += cp.panel_rows - cp.structural_rows;
    }
    // The recorded summary matches a from-scratch reduction.
    EXPECT_EQ(plan.summary.panel_blocks, sum.panel_blocks) << what;
    EXPECT_EQ(plan.summary.row_runs, sum.row_runs) << what;
    EXPECT_EQ(plan.summary.rows_skipped, sum.rows_skipped) << what;
  }
}

// A rebuilt plan (sequential) must equal the analysis plan byte for byte --
// the analysis builds it on a team, and the team build promises
// bit-identity with the sequential one.
TEST(Repartition, TeamBuildMatchesSequentialBuild) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  for (std::size_t m = 0; m < pool.size(); m += 7) {
    Options aopt;
    aopt.analysis.parallel_analyze = true;
    aopt.analysis.threads = 4;
    aopt.analysis.min_parallel_n = 0;  // force the team path on small inputs
    aopt.analysis.min_step_work = 0;
    const Analysis an = analyze(pool[m], aopt);
    const symbolic::BlockPlan seq =
        symbolic::build_block_plan(an.symbolic.abar, an.blocks);
    const std::string what = "matrix " + std::to_string(m);
    ASSERT_TRUE(seq.built) << what;
    ASSERT_EQ(an.block_plan.columns.size(), seq.columns.size()) << what;
    for (std::size_t k = 0; k < seq.columns.size(); ++k) {
      const symbolic::ColumnPlan& a = an.block_plan.columns[k];
      const symbolic::ColumnPlan& b = seq.columns[k];
      const std::string where = what + " column " + std::to_string(k);
      EXPECT_EQ(a.l_list, b.l_list) << where;
      EXPECT_EQ(a.l_offset, b.l_offset) << where;
      EXPECT_EQ(a.panel_rows, b.panel_rows) << where;
      EXPECT_EQ(a.run_ptr, b.run_ptr) << where;
      EXPECT_EQ(a.structural_rows, b.structural_rows) << where;
      ASSERT_EQ(a.row_runs.size(), b.row_runs.size()) << where;
      for (std::size_t r = 0; r < a.row_runs.size(); ++r) {
        EXPECT_EQ(a.row_runs[r].src, b.row_runs[r].src) << where;
        EXPECT_EQ(a.row_runs[r].rows, b.row_runs[r].rows) << where;
        EXPECT_EQ(a.row_runs[r].block, b.row_runs[r].block) << where;
      }
    }
  }
}

// The numeric drivers read bpattern_rows where the plan's l_list caching
// left the bpattern path; the two must stay exact transposes of each other
// after plan construction (the transpose is built once, never refreshed).
TEST(Repartition, TransposeConsistentAfterPlanBuild) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  for (std::size_t m = 0; m < pool.size(); m += 5) {
    for (Layout layout : {Layout::k1D, Layout::k2D}) {
      Options aopt;
      aopt.layout = layout;
      const Analysis an = analyze(pool[m], aopt);
      ASSERT_TRUE(an.block_plan.built) << "matrix " << m;
      EXPECT_TRUE(symbolic::transpose_consistent(an.blocks)) << "matrix " << m;
    }
  }
}

// ---------------------------------------------------------------------------
// The bitwise gate: 50 matrices x both layouts x {graph-sequential, 1, 2,
// 4, 8 threads}, every run identical to the sequential right-looking
// reference under a rotating option mix; then the production shapes at 4
// threads.  Every run takes the row-run path the block plan drives: the
// "blocking auto" of the test name.

TEST(Repartition, BlockingAutoBitIdenticalAcrossSweepLayoutsAndThreads) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  ASSERT_GE(pool.size(), 50u);
  for (std::size_t m = 0; m < pool.size(); ++m) {
    const CscMatrix& a = pool[m];
    for (Layout layout : {Layout::k1D, Layout::k2D}) {
      Options aopt;
      aopt.layout = layout;
      if (m % 3 == 0) aopt.scale_and_permute = true;
      if (m % 7 == 0) aopt.amalgamate = false;
      NumericOptions base;
      if (m % 5 == 0) base.perturb_pivots = true;
      if (m % 5 == 1) base.pivot_threshold = 0.5;
      if (m % 6 == 0) base.lazy_updates = true;

      const Analysis an = analyze(a, aopt);
      const std::string tag = "matrix " + std::to_string(m) + ", layout " +
                              (layout == Layout::k2D ? "2D" : "1D");
      NumericOptions refopt = base;
      refopt.mode = ExecutionMode::kSequential;
      const Factorization ref(an, a, refopt);

      NumericOptions graphseq = base;
      graphseq.mode = ExecutionMode::kGraphSequential;
      const Factorization gs(an, a, graphseq);
      expect_same_factorization(ref, gs, tag + ", graph-sequential");

      for (int threads : {1, 2, 4, 8}) {
        NumericOptions nopt = base;
        nopt.mode = ExecutionMode::kThreaded;
        nopt.threads = threads;
        const Factorization got(an, a, nopt);
        expect_same_factorization(ref, got,
                                  tag + ", threads " + std::to_string(threads));
      }
    }
  }
  for (const auto& [name, a] : test::production_matrices()) {
    for (Layout layout : {Layout::k1D, Layout::k2D}) {
      Options aopt;
      aopt.layout = layout;
      const Analysis an = analyze(a, aopt);
      const std::string tag = name + (layout == Layout::k2D ? ", 2D" : ", 1D");
      NumericOptions refopt;
      refopt.mode = ExecutionMode::kSequential;
      const Factorization ref(an, a, refopt);
      NumericOptions graphseq;
      graphseq.mode = ExecutionMode::kGraphSequential;
      const Factorization gs(an, a, graphseq);
      expect_same_factorization(ref, gs, tag + ", graph-sequential");
      NumericOptions nopt;
      nopt.mode = ExecutionMode::kThreaded;
      nopt.threads = 4;
      const Factorization got(an, a, nopt);
      expect_same_factorization(ref, got, tag + ", threads 4");
    }
  }
}

// The scalar-kernel ablation arm routes every gemm to the reference triple
// loop; the row-run fusion must stay bit-identical there too (the
// reference sums p ascending per element, independent of m-partitioning).
TEST(Repartition, ScalarKernelArmBitIdentical) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  blas::set_use_blocked_kernels(false);
  for (std::size_t m = 0; m < pool.size(); m += 6) {
    const CscMatrix& a = pool[m];
    Options aopt;
    aopt.layout = m % 2 == 0 ? Layout::k1D : Layout::k2D;
    const Analysis an = analyze(a, aopt);
    NumericOptions refopt;
    refopt.mode = ExecutionMode::kSequential;
    const Factorization ref(an, a, refopt);
    NumericOptions nopt;
    nopt.mode = ExecutionMode::kThreaded;
    nopt.threads = 4;
    const Factorization got(an, a, nopt);
    expect_same_factorization(ref, got,
                              "matrix " + std::to_string(m) + " scalar arm");
  }
  blas::set_use_blocked_kernels(true);
}

// Row-run updates must also be exact under the schedule-fuzzing executor,
// which inserts random delays and randomizes ready-queue order.
TEST(Repartition, FuzzedScheduleBitIdentical) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  for (std::size_t m = 0; m < pool.size(); m += 5) {
    const CscMatrix& a = pool[m];
    Options aopt;
    aopt.layout = m % 2 == 0 ? Layout::k1D : Layout::k2D;
    const Analysis an = analyze(a, aopt);
    NumericOptions refopt;
    refopt.mode = ExecutionMode::kSequential;
    const Factorization ref(an, a, refopt);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      NumericOptions nopt;
      nopt.mode = ExecutionMode::kThreaded;
      nopt.threads = 4;
      nopt.fuzz_schedule = true;
      nopt.fuzz_seed = seed;
      const Factorization got(an, a, nopt);
      expect_same_factorization(ref, got,
                                "matrix " + std::to_string(m) + ", fuzz seed " +
                                    std::to_string(seed));
    }
  }
}

// The race checker records per-task footprints -- the structural row runs
// each update writes -- and checks every unordered pair against the
// graph: the row-run fusion must not widen a footprint past what the
// checker validates.
TEST(Repartition, RaceCheckerCleanWithBlocking) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  for (std::size_t m = 0; m < pool.size(); m += 4) {
    const CscMatrix& a = pool[m];
    for (Layout layout : {Layout::k1D, Layout::k2D}) {
      Options aopt;
      aopt.layout = layout;
      const Analysis an = analyze(a, aopt);
      NumericOptions nopt;
      nopt.mode = ExecutionMode::kThreaded;
      nopt.threads = 4;
      nopt.check_races = true;
      const Factorization f(an, a, nopt);
      const std::string what = "matrix " + std::to_string(m) + ", layout " +
                               (layout == Layout::k2D ? "2D" : "1D");
      EXPECT_TRUE(f.race_checked()) << what;
      EXPECT_TRUE(f.races().empty()) << what;
    }
  }
}

// Counter sanity: every dispatched row run is accounted, and the routing
// split covers the runs (kAuto fallback runs, counted unrouted, only occur
// on the scalar-kernel arm).
TEST(Repartition, RoutingCountersConsistent) {
  gen::StencilOptions g;
  g.seed = 11;
  const CscMatrix a = gen::grid3d(4, 4, 4, g);
  const Analysis an = analyze(a);
  NumericOptions nopt;
  nopt.mode = ExecutionMode::kThreaded;
  nopt.threads = 4;
  const Factorization f(an, a, nopt);
  const symbolic::BlockingStats& s = f.blocking_stats();
  EXPECT_GT(s.tile_runs, 0);
  EXPECT_EQ(s.routed_packed + s.routed_direct, s.tile_runs);
  EXPECT_GE(s.gemms_fused, 0);
  EXPECT_GE(s.scans_elided, 0);

  // The counters depend on the values only, not on the schedule.
  NumericOptions seq;
  seq.mode = ExecutionMode::kSequential;
  const Factorization fs(an, a, seq);
  EXPECT_EQ(fs.blocking_stats().tile_runs, s.tile_runs);
  EXPECT_EQ(fs.blocking_stats().routed_packed, s.routed_packed);
  EXPECT_EQ(fs.blocking_stats().gemms_fused, s.gemms_fused);
}

}  // namespace
}  // namespace plu
