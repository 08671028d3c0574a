// DAG task coarsening gate (taskgraph/coarsen.h).
//
// The contract under test: with NumericOptions::coarsen on, THREADED
// execution is bitwise identical to ExecutionMode::kSequential -- same
// pivot sequences, same factor values, same status folds -- at any thread
// count, either layout, any threshold.  Enforced over the same 50-matrix
// property sweep the race harness uses and four production shapes at 4
// threads, plus structural invariants of the contracted graph (partition,
// forward-only edges, flop conservation), the fuzzed-schedule executor, and
// the race checker (coarsening must neither introduce races nor be
// disabled by checking).  Carries the `sanitize`
// ctest label so TSan executes the coarse schedules.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/driver.h"
#include "core/sparse_lu.h"
#include "matrix/generators.h"
#include "taskgraph/coarsen.h"
#include "test_helpers.h"

namespace plu {
namespace {

// Same five matrix classes x ten seeds as the race harness: convected 2-D
// grids, dropped 3-D grids, banded, uniform random, circuit.
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

// Bitwise factor identity.  When the reference broke down only
// unusability must agree: under cooperative cancellation which failing
// column is OBSERVED first is schedule-dependent.
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

// Structural invariants of one contraction.
void check_coarse_graph(const taskgraph::TaskGraph& g,
                        const taskgraph::CoarseGraph& cg,
                        const std::string& what) {
  ASSERT_TRUE(cg.coarsened) << what;
  const int nt = g.tasks.size();
  ASSERT_EQ(static_cast<int>(cg.group_of.size()), nt) << what;
  ASSERT_EQ(static_cast<int>(cg.members.size()), cg.num_groups) << what;
  // Partition: every original task is in exactly one group, and group_of
  // agrees with the member lists.
  std::vector<int> seen(nt, 0);
  for (int gid = 0; gid < cg.num_groups; ++gid) {
    EXPECT_FALSE(cg.members[gid].empty()) << what << " group " << gid;
    for (int id : cg.members[gid]) {
      ASSERT_GE(id, 0) << what;
      ASSERT_LT(id, nt) << what;
      ++seen[id];
      EXPECT_EQ(cg.group_of[id], gid) << what << " task " << id;
    }
  }
  for (int id = 0; id < nt; ++id) EXPECT_EQ(seen[id], 1) << what << " task " << id;
  // Every coarse edge goes forward in group id (id order is topological)
  // and indegrees match the successor lists.
  std::vector<int> indeg(cg.num_groups, 0);
  for (int a = 0; a < cg.num_groups; ++a) {
    for (int b : cg.succ[a]) {
      EXPECT_LT(a, b) << what;
      ++indeg[b];
    }
  }
  for (int gid = 0; gid < cg.num_groups; ++gid) {
    EXPECT_EQ(indeg[gid], cg.indegree[gid]) << what << " group " << gid;
  }
  // Flop conservation and priority sanity (a group's bottom level includes
  // at least its own weight).
  double sum = 0.0;
  for (int gid = 0; gid < cg.num_groups; ++gid) {
    sum += cg.flops[gid];
    EXPECT_GE(cg.priorities[gid], cg.flops[gid]) << what << " group " << gid;
  }
  EXPECT_NEAR(sum, g.total_flops, 1e-6 * (1.0 + g.total_flops)) << what;
  // Stats record consistency.
  taskgraph::CoarsenStats st = cg.stats(g);
  EXPECT_TRUE(st.ran) << what;
  EXPECT_EQ(st.tasks_before, nt) << what;
  EXPECT_EQ(st.tasks_after, cg.num_groups) << what;
  EXPECT_EQ(st.edges_after, cg.num_edges()) << what;
  EXPECT_EQ(st.fused_groups, cg.fused_groups) << what;
  EXPECT_EQ(st.fused_tasks, cg.fused_tasks) << what;
}

// ---------------------------------------------------------------------------
// Structural tests.

TEST(Coarsen, GateRefusesNonEforestGraphs) {
  gen::StencilOptions g;
  g.seed = 5;
  const CscMatrix a = gen::grid2d(10, 10, g);
  Options aopt;
  aopt.task_graph = taskgraph::GraphKind::kSStar;
  Analysis an = analyze(a, aopt);
  taskgraph::CoarseGraph cg = taskgraph::coarsen_task_graph(an.graph, an.blocks);
  EXPECT_FALSE(cg.coarsened);
  EXPECT_FALSE(cg.stats(an.graph).ran);
}

TEST(Coarsen, StructuralInvariantsAcrossSweepAndGranularities) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  for (std::size_t m = 0; m < pool.size(); m += 3) {
    Options aopt;
    aopt.layout = m % 2 == 0 ? Layout::k1D : Layout::k2D;
    Analysis an = analyze(pool[m], aopt);
    for (const taskgraph::TaskGraph* g :
         {&an.graph, aopt.layout == Layout::k2D ? &an.block_graph : nullptr}) {
      if (g == nullptr) continue;
      for (int threads : {1, 8}) {
        taskgraph::CoarsenOptions copt;
        copt.threads = threads;
        const std::string what =
            "matrix " + std::to_string(m) + ", granularity " +
            (g == &an.graph ? "column" : "block") + ", threads " +
            std::to_string(threads);
        check_coarse_graph(*g, taskgraph::coarsen_task_graph(*g, an.blocks, copt),
                           what);
      }
    }
  }
}

TEST(Coarsen, FusesWholeTreesOnForestMatrices) {
  // 16 decoupled small grids -> >= 16 eforest trees of trivial weight.  At
  // 1 thread the adaptive threshold (total/48 capped by half the critical
  // path) sits well above the leaf subtree weights, so fusion must occur; a
  // huge explicit threshold must collapse each tree to ONE task.  (At 8
  // threads the same graph is already coarser than 8 x 48 target tasks, and
  // the adaptive policy correctly declines to fuse -- that restraint is
  // asserted too.)
  std::vector<CscMatrix> blocks;
  gen::StencilOptions g;
  for (int i = 0; i < 16; ++i) {
    g.seed = 700 + i;
    blocks.push_back(gen::grid2d(6, 6, g));
  }
  const CscMatrix a = gen::block_diag(blocks);
  Analysis an = analyze(a);
  taskgraph::CoarsenOptions copt;
  copt.threads = 1;
  taskgraph::CoarseGraph adaptive =
      taskgraph::coarsen_task_graph(an.graph, an.blocks, copt);
  ASSERT_TRUE(adaptive.coarsened);
  EXPECT_GT(adaptive.fused_groups, 0);
  EXPECT_LT(adaptive.num_groups, static_cast<int>(an.graph.tasks.size()));

  // Restraint: with 8 threads this graph is already at/above the target
  // task count, so the adaptive policy must leave it (nearly) alone rather
  // than serialize the forest.
  taskgraph::CoarsenOptions wide;
  wide.threads = 8;
  taskgraph::CoarseGraph restrained =
      taskgraph::coarsen_task_graph(an.graph, an.blocks, wide);
  ASSERT_TRUE(restrained.coarsened);
  EXPECT_GE(restrained.num_groups, adaptive.num_groups);

  copt.threshold_flops = 1e30;
  taskgraph::CoarseGraph all =
      taskgraph::coarsen_task_graph(an.graph, an.blocks, copt);
  ASSERT_TRUE(all.coarsened);
  // One group per block eforest TREE (every subtree weight <= threshold, so
  // the fused roots are exactly the tree roots).
  const int trees = static_cast<int>(an.blocks.beforest.roots().size());
  EXPECT_EQ(all.num_groups, trees);
  EXPECT_GE(trees, 16);
}

// ---------------------------------------------------------------------------
// The determinism gate: 50 matrices x both layouts x {1, 2, 4, 8} threads,
// plus the production shapes at 4 threads, coarsened threaded factors
// bitwise identical to kSequential.

TEST(Coarsen, BitIdenticalToSequentialAcrossSweepLayoutsAndThreads) {
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
      // Rotate the threshold: adaptive, tiny (nothing fuses), huge
      // (everything fuses per tree) -- all must be exact.
      base.coarsen_threshold_flops =
          m % 4 == 0 ? 0.0 : (m % 4 == 1 ? 1e-3 : 1e30);
      // Storage rotation doubles as arena-vs-vectors value-identity proof.
      base.storage = m % 2 == 0 ? StorageMode::kArena : StorageMode::kVectors;

      const Analysis an = analyze(a, aopt);
      NumericOptions refopt = base;
      refopt.mode = ExecutionMode::kSequential;
      const Factorization ref(an, a, refopt);

      for (int threads : {1, 2, 4, 8}) {
        const std::string what = "matrix " + std::to_string(m) + ", layout " +
                                 (layout == Layout::k2D ? "2D" : "1D") +
                                 ", threads " + std::to_string(threads);
        NumericOptions nopt = base;
        nopt.mode = ExecutionMode::kThreaded;
        nopt.threads = threads;
        nopt.coarsen = true;
        nopt.storage = threads % 2 == 0 ? StorageMode::kVectors
                                        : StorageMode::kArena;
        const Factorization co(an, a, nopt);
        EXPECT_TRUE(co.coarsen_stats().ran) << what;
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
      const Factorization ref(an, a, refopt);
      // The uncoarsened arm: the fine graphs alone must pin the bits too.
      for (bool coarsen : {true, false}) {
        const std::string what = name +
                                 (layout == Layout::k2D ? ", 2D" : ", 1D") +
                                 ", threads 4" +
                                 (coarsen ? "" : ", uncoarsened");
        NumericOptions nopt;
        nopt.mode = ExecutionMode::kThreaded;
        nopt.threads = 4;
        nopt.coarsen = coarsen;
        const Factorization co(an, a, nopt);
        EXPECT_EQ(co.coarsen_stats().ran, coarsen) << what;
        expect_same_factorization(ref, co, what);
      }
    }
  }
}

// Coarse groups must also be exact under the schedule-fuzzing executor,
// which inserts random delays and randomizes ready-queue order.
TEST(Coarsen, FuzzedScheduleBitIdentical) {
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
      nopt.coarsen = true;
      nopt.fuzz_schedule = true;
      nopt.fuzz_seed = seed;
      const Factorization co(an, a, nopt);
      EXPECT_TRUE(co.coarsen_stats().ran) << "matrix " << m;
      expect_same_factorization(ref, co,
                                "matrix " + std::to_string(m) + ", fuzz seed " +
                                    std::to_string(seed));
    }
  }
}

// The race checker records per-task footprints of the ORIGINAL tasks and
// checks them against the original graph's reachability, so coarsening must
// neither introduce races nor force itself off while checking is enabled.
TEST(Coarsen, RaceCheckerCleanUnderCoarsening) {
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
      nopt.coarsen = true;
      nopt.check_races = true;
      const Factorization f(an, a, nopt);
      const std::string what = "matrix " + std::to_string(m) + ", layout " +
                               (layout == Layout::k2D ? "2D" : "1D");
      EXPECT_TRUE(f.coarsen_stats().ran) << what;
      EXPECT_TRUE(f.races().empty()) << what;
    }
  }
}

// Coarsening silently falls back (stats.ran == false) when not applicable;
// the factorization must still succeed on the uncoarsened path.
TEST(Coarsen, SilentFallbackOnSStarGraphs) {
  gen::StencilOptions g;
  g.seed = 9;
  const CscMatrix a = gen::grid2d(8, 8, g);
  Options aopt;
  aopt.task_graph = taskgraph::GraphKind::kSStar;
  const Analysis an = analyze(a, aopt);
  NumericOptions nopt;
  nopt.mode = ExecutionMode::kThreaded;
  nopt.threads = 4;
  nopt.coarsen = true;
  const Factorization f(an, a, nopt);
  EXPECT_FALSE(f.coarsen_stats().ran);
  EXPECT_TRUE(factor_usable(f.status()));
}

}  // namespace
}  // namespace plu
