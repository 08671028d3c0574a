// Determinism gate for the parallel analysis pipeline (DESIGN.md section 11).
//
// The parallel analyze is REQUIRED to be bit-identical to the sequential
// one: same fill, same supernodes, same task graph (edge ordering included),
// same schedule priorities.  These tests enforce that over a 50-matrix
// property sweep at 1, 2, 4 and 8 threads, with the work gates zeroed so
// every loop actually takes its parallel code path -- which is also what
// makes this file a real TSan target (it carries the `sanitize` ctest
// label).
//
// Also here: the SparseLU analysis-reuse regression (factorize() twice on
// the same pattern must run analyze once, observable via analyze_count()).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/analysis.h"
#include "core/sparse_lu.h"
#include "matrix/generators.h"
#include "symbolic/compact_storage.h"
#include "taskgraph/analysis.h"
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

// Forces every parallel code path regardless of matrix size or estimated
// per-loop work.
void force_parallel(Options& opt, int threads) {
  opt.analysis.parallel_analyze = true;
  opt.analysis.threads = threads;
  opt.analysis.min_parallel_n = 0;
  opt.analysis.min_step_work = 0;
}

void expect_same_graph(const taskgraph::TaskGraph& s,
                       const taskgraph::TaskGraph& p, const std::string& what) {
  EXPECT_EQ(s.kind, p.kind) << what;
  ASSERT_EQ(s.size(), p.size()) << what;
  EXPECT_EQ(s.tasks.tasks(), p.tasks.tasks()) << what;
  // Edge ORDER matters (successor lists feed the executor deterministically),
  // so compare the nested vectors directly, not a sorted copy.
  EXPECT_EQ(s.succ, p.succ) << what;
  EXPECT_EQ(s.indegree, p.indegree) << what;
  EXPECT_EQ(s.flops, p.flops) << what;
  EXPECT_EQ(s.output_bytes, p.output_bytes) << what;
  EXPECT_EQ(s.total_flops, p.total_flops) << what;  // exact, not near
}

// Field-by-field bit-identity of every artifact the numeric phase and the
// schedulers consume.  Timings and options are excluded (the former are
// wall-clock, the latter differ by construction).
void expect_same_analysis(const Analysis& s, const Analysis& p,
                          const std::string& what) {
  EXPECT_EQ(s.row_perm.old_positions(), p.row_perm.old_positions()) << what;
  EXPECT_EQ(s.col_perm.old_positions(), p.col_perm.old_positions()) << what;
  EXPECT_EQ(s.symbolic.abar.ptr, p.symbolic.abar.ptr) << what;
  EXPECT_EQ(s.symbolic.abar.idx, p.symbolic.abar.idx) << what;
  EXPECT_EQ(s.symbolic.nnz_lbar, p.symbolic.nnz_lbar) << what;
  EXPECT_EQ(s.symbolic.nnz_ubar, p.symbolic.nnz_ubar) << what;
  EXPECT_EQ(s.eforest.parents(), p.eforest.parents()) << what;
  EXPECT_EQ(s.exact_partition.boundaries(), p.exact_partition.boundaries())
      << what;
  EXPECT_EQ(s.partition.boundaries(), p.partition.boundaries()) << what;
  EXPECT_EQ(s.blocks.bpattern.ptr, p.blocks.bpattern.ptr) << what;
  EXPECT_EQ(s.blocks.bpattern.idx, p.blocks.bpattern.idx) << what;
  EXPECT_EQ(s.blocks.bpattern_rows.ptr, p.blocks.bpattern_rows.ptr) << what;
  EXPECT_EQ(s.blocks.bpattern_rows.idx, p.blocks.bpattern_rows.idx) << what;
  EXPECT_EQ(s.blocks.beforest.parents(), p.blocks.beforest.parents()) << what;
  EXPECT_EQ(s.blocks.extra_blocks_from_closure,
            p.blocks.extra_blocks_from_closure)
      << what;
  EXPECT_EQ(s.block_plan.summary.row_runs, p.block_plan.summary.row_runs)
      << what;
  expect_same_graph(s.graph, p.graph, what + " [column graph]");
  expect_same_graph(s.block_graph, p.block_graph, what + " [block graph]");
  EXPECT_EQ(s.costs.flops, p.costs.flops) << what;
  EXPECT_EQ(s.costs.panel_bytes, p.costs.panel_bytes) << what;
  EXPECT_EQ(s.costs.output_bytes, p.costs.output_bytes) << what;
  EXPECT_EQ(s.costs.total_flops, p.costs.total_flops) << what;
  EXPECT_EQ(s.diag_block_sizes, p.diag_block_sizes) << what;
}

// ---------------------------------------------------------------------------
// The gate: 50 matrices x {1, 2, 4, 8} threads, every artifact identical to
// the sequential pipeline.  Option coverage rotates like the race harness:
// natural ordering every third matrix (path-like forests), 2-D layout every
// fourth (exercises the block-granularity graph build on the team), S*
// graph every fifth.

TEST(ParallelAnalysis, BitIdenticalAcrossThreadCountsAndSweep) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  ASSERT_GE(pool.size(), 50u);
  for (std::size_t m = 0; m < pool.size(); ++m) {
    Options base;
    if (m % 3 == 0) base.ordering = ordering::Method::kNatural;
    if (m % 4 == 0) base.layout = Layout::k2D;
    if (m % 5 == 0) base.task_graph = taskgraph::GraphKind::kSStar;
    Analysis seq = analyze(pool[m], base);
    ASSERT_FALSE(seq.timings.parallel);
    for (int threads : {1, 2, 4, 8}) {
      Options popt = base;
      force_parallel(popt, threads);
      Analysis par = analyze(pool[m], popt);
      expect_same_analysis(seq, par,
                           "matrix " + std::to_string(m) + ", threads " +
                               std::to_string(threads));
    }
  }
}

// The default gates (min_parallel_n, min_step_work) must only ever redirect
// to the sequential code, never change results: spot-check with defaults on.
TEST(ParallelAnalysis, DefaultGatesPreserveResults) {
  gen::StencilOptions g;
  g.seed = 42;
  g.convection = 0.4;
  const CscMatrix a = gen::grid2d(14, 13, g);  // n = 182 > min_parallel_n
  Analysis seq = analyze(a);
  Options popt;
  popt.analysis.parallel_analyze = true;
  popt.analysis.threads = 4;
  Analysis par = analyze(a, popt);
  EXPECT_TRUE(par.timings.parallel || par.timings.threads == 1);
  expect_same_analysis(seq, par, "default gates");
}

// ---------------------------------------------------------------------------
// Direct engine / phase-level identity, independent of the pipeline driver.

TEST(ParallelAnalysis, ParallelBitsetEngineMatchesBitset) {
  rt::Team team(4, /*min_work=*/0);
  for (const CscMatrix& a : sweep_matrices()) {
    // The engines require a zero-free diagonal; run on A + I's pattern the
    // way the pipeline would after the transversal.
    Analysis an = analyze(a);
    const Pattern& abar = an.symbolic.abar;
    symbolic::SymbolicResult s =
        symbolic::static_symbolic_factorization(abar, symbolic::Engine::kBitset);
    symbolic::SymbolicResult p = symbolic::static_symbolic_factorization(
        abar, symbolic::Engine::kParallelBitset, team);
    EXPECT_EQ(s.abar.ptr, p.abar.ptr);
    EXPECT_EQ(s.abar.idx, p.abar.idx);
    EXPECT_EQ(s.nnz_lbar, p.nnz_lbar);
    EXPECT_EQ(s.nnz_ubar, p.nnz_ubar);
  }
}

TEST(ParallelAnalysis, SupernodePhasesMatchSequential) {
  rt::Team team(4, /*min_work=*/0);
  for (const CscMatrix& a : sweep_matrices()) {
    Analysis an = analyze(a);
    const Pattern& abar = an.symbolic.abar;
    symbolic::SupernodePartition s = symbolic::find_supernodes(abar);
    symbolic::SupernodePartition p = symbolic::find_supernodes(abar, team);
    EXPECT_EQ(s.boundaries(), p.boundaries());
    symbolic::AmalgamationOptions aopt;
    symbolic::SupernodePartition as =
        symbolic::amalgamate(abar, an.eforest, s, aopt);
    symbolic::SupernodePartition ap =
        symbolic::amalgamate(abar, an.eforest, p, aopt, team);
    EXPECT_EQ(as.boundaries(), ap.boundaries());
  }
}

TEST(ParallelAnalysis, CompactStorageBuildMatchesSequential) {
  rt::Team team(4, /*min_work=*/0);
  for (const CscMatrix& a : sweep_matrices()) {
    Analysis an = analyze(a);
    symbolic::CompactStorage s = symbolic::CompactStorage::build(an.symbolic.abar);
    symbolic::CompactStorage p =
        symbolic::CompactStorage::build(an.symbolic.abar, team);
    EXPECT_EQ(s.eforest().parents(), p.eforest().parents());
    EXPECT_EQ(s.row_first(), p.row_first());
    for (int j = 0; j < s.size(); ++j) {
      EXPECT_EQ(s.col_leaves(j), p.col_leaves(j)) << "column " << j;
    }
  }
}

TEST(ParallelAnalysis, BottomLevelsBitIdentical) {
  rt::Team team(4, /*min_work=*/0);
  for (const CscMatrix& a : sweep_matrices()) {
    Analysis an = analyze(a);
    std::vector<double> s = taskgraph::bottom_levels(an.graph, an.costs.flops);
    std::vector<double> p =
        taskgraph::bottom_levels(an.graph, an.costs.flops, team);
    EXPECT_EQ(s, p);  // exact: the level-sweep max is fp-exact
  }
}

// ---------------------------------------------------------------------------
// End to end: a parallel-analyzed factorization solves like a sequential one.

TEST(ParallelAnalysis, FacadeSolvesWithParallelAnalyze) {
  gen::StencilOptions g;
  g.seed = 9;
  const CscMatrix a = gen::grid2d(9, 8, g);
  std::vector<double> b = test::random_vector(a.rows(), 77);

  Options popt;
  force_parallel(popt, 4);
  SparseLU lu(popt);
  lu.factorize(a);
  EXPECT_TRUE(lu.analysis().timings.parallel || lu.analysis().timings.threads == 1);
  std::vector<double> x = lu.solve(b);
  EXPECT_LT(relative_residual(a, x, b), 1e-10);

  std::vector<double> xs = SparseLU::solve_system(a, b);
  ASSERT_EQ(x.size(), xs.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Identical analysis => identical elimination order => identical floats.
    EXPECT_EQ(x[i], xs[i]) << "entry " << i;
  }
}

// ---------------------------------------------------------------------------
// Analysis-reuse guard regression: factorize() twice on the same pattern
// must run the symbolic pipeline ONCE; a changed pattern (same dims) must
// re-run it.

TEST(SparseLUReuse, FactorizeTwiceSamePatternAnalyzesOnce) {
  gen::StencilOptions g;
  g.seed = 3;
  const CscMatrix a = gen::grid2d(7, 7, g);
  SparseLU lu;
  lu.factorize(a);
  EXPECT_EQ(lu.analyze_count(), 1);

  // Same pattern, scaled values: the static analysis is value-independent.
  CscMatrix a2 = a;
  for (double& v : a2.values()) v *= 3.0;
  lu.factorize(a2);
  EXPECT_EQ(lu.analyze_count(), 1);
  lu.factorize(a2);
  EXPECT_EQ(lu.analyze_count(), 1);

  std::vector<double> b = test::random_vector(a.rows(), 5);
  std::vector<double> x = lu.solve(b);
  EXPECT_LT(relative_residual(a2, x, b), 1e-10);
}

TEST(SparseLUReuse, ChangedPatternSameDimsReanalyzes) {
  const CscMatrix a = gen::banded(40, {-3, -1, 1, 3}, 0.8, 0.7, 11);
  const CscMatrix c = gen::banded(40, {-5, -1, 1, 5}, 0.8, 0.7, 12);
  ASSERT_EQ(a.rows(), c.rows());
  SparseLU lu;
  lu.factorize(a);
  EXPECT_EQ(lu.analyze_count(), 1);
  lu.factorize(c);  // same dims, different structure
  EXPECT_EQ(lu.analyze_count(), 2);
  lu.factorize(c);
  EXPECT_EQ(lu.analyze_count(), 2);

  std::vector<double> b = test::random_vector(c.rows(), 6);
  std::vector<double> x = lu.solve(b);
  EXPECT_LT(relative_residual(c, x, b), 1e-10);
}

}  // namespace
}  // namespace plu
