// Structure-aware blocking gate (symbolic/repartition.h, DESIGN.md §16).
//
// The contract under test: with NumericOptions::blocking == kAuto the
// numeric drivers consume the analysis tile plan -- hoisted density scans,
// measured-density per-tile routing, adjacent same-decision tile fusion --
// and the factors stay BITWISE identical to blocking == kOff at any thread
// count, either layout, any option rotation.  Enforced over the same
// 50-matrix property sweep the coarsening gate uses and four production
// shapes at 4 threads, plus structural invariants of the plan itself,
// transpose consistency of the block structure after plan construction,
// the fuzzed-schedule executor, the race checker, and the DAG-bound
// tiny-supernode merge.  Carries the
// `sanitize` ctest label so TSan executes the plan-driven schedules.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "blas/level3.h"
#include "blas/tunables.h"
#include "core/sparse_lu.h"
#include "matrix/generators.h"
#include "symbolic/repartition.h"
#include "taskgraph/coarsen.h"
#include "test_helpers.h"

namespace plu {
namespace {

// Same five matrix classes x ten seeds as the race harness and the
// coarsening gate: convected 2-D grids, dropped 3-D grids, banded, uniform
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

// Bitwise factor identity (the coarsening gate's assertion set).
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
      ASSERT_EQ(static_cast<int>(cp.l_density.size()), nl) << where;
      ASSERT_EQ(static_cast<int>(cp.tile_class.size()), nl) << where;
      EXPECT_EQ(cp.l_offset.empty() ? 0 : cp.l_offset.front(), 0) << where;
      // Offsets advance by the row-block widths (row partition == column
      // partition) and close at panel_rows.
      for (int t = 0; t < nl; ++t) {
        EXPECT_EQ(cp.l_offset[t + 1] - cp.l_offset[t],
                  an.partition.width(cp.l_list[t]))
            << where << " tile " << t;
      }
      EXPECT_EQ(cp.l_offset.back(), cp.panel_rows) << where;
      // Densities are well-formed and the class prediction matches them.
      int runs = nl > 0 ? 1 : 0;
      bool mixed = false;
      for (int t = 0; t < nl; ++t) {
        EXPECT_GE(cp.l_density[t], 0.0) << where;
        EXPECT_LE(cp.l_density[t], 1.0) << where;
        const auto cls = static_cast<symbolic::TileClass>(cp.tile_class[t]);
        if (cp.l_density[t] == 0.0) {
          EXPECT_EQ(cls, symbolic::TileClass::kZero) << where << " tile " << t;
        } else if (cp.l_density[t] >= blas::tunables::kDenseTileMinFill) {
          EXPECT_EQ(cls, symbolic::TileClass::kDense) << where << " tile " << t;
        } else {
          EXPECT_EQ(cls, symbolic::TileClass::kSparse) << where << " tile " << t;
        }
        if (t > 0 && cp.tile_class[t] != cp.tile_class[t - 1]) ++runs;
        if (cp.tile_class[t] != cp.tile_class[0]) mixed = true;
        sum.panel_blocks += 1;
        if (cls == symbolic::TileClass::kDense) sum.dense_blocks += 1;
        if (cls == symbolic::TileClass::kZero) sum.zero_blocks += 1;
      }
      EXPECT_EQ(cp.predicted_tiles, runs) << where;
      sum.predicted_tiles += runs;
      if (runs > 1) sum.split_tiles += runs - 1;
      if (mixed) sum.mixed_columns += 1;
    }
    // The recorded summary matches a from-scratch reduction.
    EXPECT_EQ(plan.summary.panel_blocks, sum.panel_blocks) << what;
    EXPECT_EQ(plan.summary.dense_blocks, sum.dense_blocks) << what;
    EXPECT_EQ(plan.summary.zero_blocks, sum.zero_blocks) << what;
    EXPECT_EQ(plan.summary.predicted_tiles, sum.predicted_tiles) << what;
    EXPECT_EQ(plan.summary.split_tiles, sum.split_tiles) << what;
    EXPECT_EQ(plan.summary.mixed_columns, sum.mixed_columns) << what;
    EXPECT_EQ(plan.summary.tiny_width_cap, blas::tunables::kTinyStageWidth)
        << what;
    EXPECT_GE(plan.summary.dense_area_frac, 0.0) << what;
    EXPECT_LE(plan.summary.dense_area_frac, 1.0) << what;
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
      EXPECT_EQ(a.l_density, b.l_density) << where;
      EXPECT_EQ(a.panel_density, b.panel_density) << where;
      EXPECT_EQ(a.tile_class, b.tile_class) << where;
      EXPECT_EQ(a.predicted_tiles, b.predicted_tiles) << where;
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
// The bitwise gate: 50 matrices x both layouts x {sequential, 1, 2, 4, 8}
// threads, blocking=auto factors identical to the blocking=off sequential
// reference under a rotating option mix; then the production shapes at 4
// threads, uncoarsened and coarsened.

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
      // Coarsening rotates in both layouts: the fine graphs already order
      // every pair of writers of one entry.
      base.coarsen = m % 2 == 0;
      base.storage = m % 2 == 0 ? StorageMode::kArena : StorageMode::kVectors;

      const Analysis an = analyze(a, aopt);
      NumericOptions refopt = base;
      refopt.mode = ExecutionMode::kSequential;
      refopt.blocking = BlockingMode::kOff;
      const Factorization ref(an, a, refopt);
      EXPECT_FALSE(ref.blocking_stats().ran);

      NumericOptions seqauto = base;
      seqauto.mode = ExecutionMode::kSequential;
      seqauto.blocking = BlockingMode::kAuto;
      const Factorization sa(an, a, seqauto);
      EXPECT_TRUE(sa.blocking_stats().ran) << "matrix " << m;
      expect_same_factorization(ref, sa,
                                "matrix " + std::to_string(m) + " seq-auto");

      for (int threads : {1, 2, 4, 8}) {
        const std::string what = "matrix " + std::to_string(m) + ", layout " +
                                 (layout == Layout::k2D ? "2D" : "1D") +
                                 ", threads " + std::to_string(threads);
        NumericOptions nopt = base;
        nopt.mode = ExecutionMode::kThreaded;
        nopt.threads = threads;
        nopt.blocking = BlockingMode::kAuto;
        const Factorization co(an, a, nopt);
        EXPECT_TRUE(co.blocking_stats().ran) << what;
        expect_same_factorization(ref, co, what);
      }
    }
  }
  for (const auto& [name, a] : test::production_matrices()) {
    for (Layout layout : {Layout::k1D, Layout::k2D}) {
      Options aopt;
      aopt.layout = layout;
      const Analysis an = analyze(a, aopt);
      NumericOptions refopt;
      refopt.mode = ExecutionMode::kSequential;
      refopt.blocking = BlockingMode::kOff;
      const Factorization ref(an, a, refopt);
      for (bool coarsen : {false, true}) {
        const std::string what = name +
                                 (layout == Layout::k2D ? ", 2D" : ", 1D") +
                                 ", threads 4" + (coarsen ? ", coarsened" : "");
        NumericOptions nopt;
        nopt.mode = ExecutionMode::kThreaded;
        nopt.threads = 4;
        nopt.blocking = BlockingMode::kAuto;
        nopt.coarsen = coarsen;
        const Factorization co(an, a, nopt);
        EXPECT_TRUE(co.blocking_stats().ran) << what;
        expect_same_factorization(ref, co, what);
      }
    }
  }
}

// Auto-vs-off at a FIXED mode and schedule (one worker, deterministic
// executor order): the routed 2-D path must replay gemm's kAuto decisions
// exactly on the uncoarsened 2-D graph's own topological order.
TEST(Repartition, UncoarsenedTwoDAutoMatchesOffAtOneThread) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  for (std::size_t m = 0; m < pool.size(); m += 2) {
    const CscMatrix& a = pool[m];
    Options aopt;
    aopt.layout = Layout::k2D;
    const Analysis an = analyze(a, aopt);
    NumericOptions off;
    off.mode = ExecutionMode::kThreaded;
    off.threads = 1;
    off.blocking = BlockingMode::kOff;
    const Factorization ref(an, a, off);
    NumericOptions on = off;
    on.blocking = BlockingMode::kAuto;
    const Factorization co(an, a, on);
    EXPECT_TRUE(co.blocking_stats().ran) << "matrix " << m;
    expect_same_factorization(ref, co, "matrix " + std::to_string(m) +
                                           " uncoarsened 2-D, 1 thread");
  }
}

// The scalar-kernel ablation arm routes every gemm to the reference triple
// loop; the plan's tile fusion must stay bit-identical there too (the
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
    refopt.blocking = BlockingMode::kOff;
    const Factorization ref(an, a, refopt);
    NumericOptions nopt;
    nopt.mode = ExecutionMode::kThreaded;
    nopt.threads = 4;
    nopt.blocking = BlockingMode::kAuto;
    nopt.coarsen = true;  // pins 2-D additive order to sequential
    const Factorization co(an, a, nopt);
    expect_same_factorization(ref, co,
                              "matrix " + std::to_string(m) + " scalar arm");
  }
  blas::set_use_blocked_kernels(true);
}

// Plan-driven tile runs must also be exact under the schedule-fuzzing
// executor, which inserts random delays and randomizes ready-queue order.
TEST(Repartition, FuzzedScheduleBitIdentical) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  for (std::size_t m = 0; m < pool.size(); m += 5) {
    const CscMatrix& a = pool[m];
    Options aopt;
    aopt.layout = m % 2 == 0 ? Layout::k1D : Layout::k2D;
    const Analysis an = analyze(a, aopt);
    NumericOptions refopt;
    refopt.mode = ExecutionMode::kSequential;
    refopt.blocking = BlockingMode::kOff;
    const Factorization ref(an, a, refopt);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      NumericOptions nopt;
      nopt.mode = ExecutionMode::kThreaded;
      nopt.threads = 4;
      nopt.blocking = BlockingMode::kAuto;
      nopt.coarsen = true;
      nopt.fuzz_schedule = true;
      nopt.fuzz_seed = seed;
      const Factorization co(an, a, nopt);
      expect_same_factorization(ref, co,
                                "matrix " + std::to_string(m) + ", fuzz seed " +
                                    std::to_string(seed));
    }
  }
}

// The race checker records per-task footprints of the ORIGINAL tasks; the
// plan's tile fusion must neither widen a footprint past what the checker
// validates nor force itself off while checking is enabled.
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
      nopt.blocking = BlockingMode::kAuto;
      nopt.coarsen = true;
      nopt.check_races = true;
      const Factorization f(an, a, nopt);
      const std::string what = "matrix " + std::to_string(m) + ", layout " +
                               (layout == Layout::k2D ? "2D" : "1D");
      EXPECT_TRUE(f.blocking_stats().ran) << what;
      EXPECT_TRUE(f.races().empty()) << what;
    }
  }
}

// Counter sanity: with the plan active, every dispatched tile run is
// accounted and the routing split covers the runs (kAuto fallback runs,
// counted unrouted, only occur on the scalar-kernel arm).
TEST(Repartition, RoutingCountersConsistent) {
  gen::StencilOptions g;
  g.seed = 11;
  const CscMatrix a = gen::grid3d(4, 4, 4, g);
  const Analysis an = analyze(a);
  NumericOptions nopt;
  nopt.mode = ExecutionMode::kThreaded;
  nopt.threads = 4;
  nopt.blocking = BlockingMode::kAuto;
  const Factorization f(an, a, nopt);
  const symbolic::BlockingStats& s = f.blocking_stats();
  ASSERT_TRUE(s.ran);
  EXPECT_GT(s.tile_runs, 0);
  EXPECT_EQ(s.routed_packed + s.routed_direct, s.tile_runs);
  EXPECT_GE(s.gemms_fused, 0);
  EXPECT_GE(s.scans_elided, 0);

  NumericOptions off = nopt;
  off.blocking = BlockingMode::kOff;
  const Factorization fo(an, a, off);
  EXPECT_FALSE(fo.blocking_stats().ran);
  EXPECT_EQ(fo.blocking_stats().tile_runs, 0);
}

// ---------------------------------------------------------------------------
// The DAG-aware tiny-supernode merge.

TEST(Repartition, TinyMergeKicksInWhenDagBound) {
  // A power-law graph is all tiny supernodes and thousands of tasks: with a
  // 1-thread x 1-task target the DAG-bound gate must fire, and for some
  // explicit threshold in the sweep whole tiny subtrees must fuse BEYOND
  // the flop threshold (subtree weight > threshold but <= the tiny-merge
  // factor times it).
  const CscMatrix a = gen::power_law(1200, 4.0, 2.0, 0.6, 0.8, 77);
  const Analysis an = analyze(a);
  ASSERT_TRUE(an.block_plan.built);
  ASSERT_GT(an.graph.size(),
            blas::tunables::kDagBoundTaskFactor);  // gate arithmetic below

  bool merged_somewhere = false;
  double merged_threshold = 0.0;
  for (double thr : {1e1, 1e2, 1e3, 1e4, 1e5, 1e6}) {
    taskgraph::CoarsenOptions copt;
    copt.threads = 1;
    copt.target_tasks_per_thread = 1;
    copt.threshold_flops = thr;
    copt.plan = &an.block_plan;
    const taskgraph::CoarseGraph cg =
        taskgraph::coarsen_task_graph(an.graph, an.blocks, copt);
    ASSERT_TRUE(cg.coarsened) << "threshold " << thr;
    EXPECT_TRUE(cg.dag_bound) << "threshold " << thr;
    // Without the plan the same threshold must never report tiny merging.
    taskgraph::CoarsenOptions plain = copt;
    plain.plan = nullptr;
    const taskgraph::CoarseGraph base =
        taskgraph::coarsen_task_graph(an.graph, an.blocks, plain);
    EXPECT_FALSE(base.dag_bound) << "threshold " << thr;
    EXPECT_EQ(base.tiny_merged_stages, 0) << "threshold " << thr;
    if (cg.tiny_merged_stages > 0 && !merged_somewhere) {
      merged_somewhere = true;
      merged_threshold = thr;
      // Tiny merging only ever fuses MORE than the flop threshold alone.
      EXPECT_LE(cg.num_groups, base.num_groups) << "threshold " << thr;
    }
  }
  EXPECT_TRUE(merged_somewhere);

  // End to end: a driver run with that threshold, coarsening and blocking
  // on, stays bitwise identical to the sequential blocking-off reference.
  NumericOptions refopt;
  refopt.mode = ExecutionMode::kSequential;
  refopt.blocking = BlockingMode::kOff;
  const Factorization ref(an, a, refopt);
  NumericOptions nopt;
  nopt.mode = ExecutionMode::kThreaded;
  nopt.threads = 4;
  nopt.coarsen = true;
  nopt.coarsen_threshold_flops = merged_threshold;
  nopt.blocking = BlockingMode::kAuto;
  const Factorization co(an, a, nopt);
  EXPECT_TRUE(co.coarsen_stats().ran);
  EXPECT_TRUE(co.coarsen_stats().dag_bound);
  expect_same_factorization(ref, co, "power-law tiny merge");
}

}  // namespace
}  // namespace plu
