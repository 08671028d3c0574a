// Analysis/factorization reports and forest statistics.
#include <gtest/gtest.h>

#include <sstream>

#include "core/report.h"
#include "core/sparse_lu.h"
#include "test_helpers.h"

namespace plu {
namespace {

TEST(ForestStats, KnownFixture) {
  // Forest:  3 <- {0, 2}, 1 root with child 4.  (Same shape as the forest
  // test fixture.)
  graph::Forest f(std::vector<int>{3, graph::kNone, 3, graph::kNone, 1});
  graph::ForestStats st = graph::forest_stats(f);
  EXPECT_EQ(st.nodes, 5);
  EXPECT_EQ(st.trees, 2);
  EXPECT_EQ(st.leaves, 3);  // 0, 2, 4
  EXPECT_EQ(st.height, 1);
  EXPECT_EQ(st.max_branching, 2);
  EXPECT_NEAR(st.avg_depth, 3.0 / 5.0, 1e-12);
}

TEST(ForestStats, EmptyForest) {
  graph::ForestStats st = graph::forest_stats(graph::Forest(0));
  EXPECT_EQ(st.nodes, 0);
  EXPECT_EQ(st.trees, 0);
  EXPECT_DOUBLE_EQ(st.avg_depth, 0.0);
}

TEST(Report, CollectsConsistentNumbers) {
  CscMatrix a = test::small_matrices()[0];
  Analysis an = analyze(a);
  AnalysisReport r = report(an);
  EXPECT_EQ(r.n, a.rows());
  EXPECT_EQ(r.nnz, a.nnz());
  EXPECT_NEAR(r.fill_ratio, an.fill_ratio(), 1e-12);
  EXPECT_EQ(r.supernodes.count, an.blocks.num_blocks());
  EXPECT_EQ(r.graph.tasks, an.graph.size());
  EXPECT_EQ(r.beforest.nodes, an.blocks.num_blocks());
  EXPECT_FALSE(r.mc64_scaled);

  Factorization f(an, a);
  FactorizationReport fr = report(f);
  EXPECT_FALSE(fr.singular);
  EXPECT_EQ(fr.pivot_interchanges, f.pivot_interchanges());
  EXPECT_GT(fr.stored_doubles, 0u);
}

TEST(Report, RendersAllSections) {
  CscMatrix a = test::small_matrices()[1];
  Analysis an = analyze(a);
  Factorization f(an, a);
  std::ostringstream os;
  os << report(an) << "\n" << report(f);
  std::string s = os.str();
  for (const char* needle : {"matrix:", "symbolic:", "supernodes:", "beforest:",
                             "task graph:", "numeric:", "blocking:"}) {
    EXPECT_NE(s.find(needle), std::string::npos) << needle;
  }
}

TEST(Report, BlockingLineMatchesRunCounters) {
  CscMatrix a = test::small_matrices()[1];
  Analysis an = analyze(a);
  // Analysis report: the row-run summary renders whenever the plan was
  // built.
  AnalysisReport ar = report(an);
  EXPECT_TRUE(ar.blocking.built);
  EXPECT_EQ(ar.blocking.row_runs, an.block_plan.summary.row_runs);
  EXPECT_NE(to_string(ar).find("row runs:"), std::string::npos);

  // The default run: the report's counters are the run's.
  Factorization f(an, a);
  FactorizationReport r = report(f);
  const symbolic::BlockingStats& s = f.blocking_stats();
  EXPECT_GT(r.blocking.tile_runs, 0);
  EXPECT_EQ(r.blocking.tile_runs, s.tile_runs);
  EXPECT_EQ(r.blocking.gemms_fused, s.gemms_fused);
  EXPECT_EQ(r.blocking.routed_packed, s.routed_packed);
  EXPECT_EQ(r.blocking.routed_direct, s.routed_direct);
  EXPECT_EQ(r.blocking.scans_elided, s.scans_elided);
  const std::string text = to_string(r);
  EXPECT_NE(text.find("blocking:    " + std::to_string(s.tile_runs) +
                      " row run(s)"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace plu
