// Analysis/factorization reports, forest statistics and Ruiz equilibration.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/report.h"
#include "core/sparse_lu.h"
#include "matrix/equilibrate.h"
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

TEST(Ruiz, DrivesRowAndColumnMaximaToOne) {
  // Inject a wild dynamic range, then equilibrate.
  CscMatrix base = gen::random_sparse(60, 3.0, 0.4, 0.7, 55);
  std::vector<int> ptr = base.col_ptr();
  std::vector<int> ind = base.row_ind();
  std::vector<double> val = base.values();
  for (std::size_t k = 0; k < val.size(); ++k) {
    val[k] *= std::pow(10.0, static_cast<int>(k % 9) - 4);
  }
  CscMatrix a(base.rows(), base.cols(), ptr, ind, val);
  Equilibration eq = ruiz_equilibrate(a);
  EXPECT_LE(eq.max_deviation, 1e-6);
  CscMatrix s = eq.apply(a);
  // Every row and column max-magnitude within tolerance of 1.
  Pattern rows = s.pattern().transpose();
  std::vector<double> rmax(s.rows(), 0.0), cmax(s.cols(), 0.0);
  for (int j = 0; j < s.cols(); ++j) {
    for (int k = s.col_begin(j); k < s.col_end(j); ++k) {
      rmax[s.row_index(k)] = std::max(rmax[s.row_index(k)], std::abs(s.value(k)));
      cmax[j] = std::max(cmax[j], std::abs(s.value(k)));
    }
  }
  for (double v : rmax) {
    if (v > 0) {
      EXPECT_NEAR(v, 1.0, 1e-5);
    }
  }
  for (double v : cmax) {
    if (v > 0) {
      EXPECT_NEAR(v, 1.0, 1e-5);
    }
  }
}

TEST(Ruiz, IdentityScalesForAlreadyEquilibrated) {
  // A matrix whose entries are all +-1 is already equilibrated.
  CooMatrix coo(4, 4);
  for (int i = 0; i < 4; ++i) coo.add(i, i, 1.0);
  coo.add(0, 1, -1.0);
  coo.add(2, 3, 1.0);
  Equilibration eq = ruiz_equilibrate(coo.to_csc());
  EXPECT_EQ(eq.iterations, 0);
  for (double v : eq.row_scale) EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Ruiz, ZeroRowsKeepUnitScale) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 4.0);
  coo.add(2, 2, 0.25);  // row/col 1 empty
  Equilibration eq = ruiz_equilibrate(coo.to_csc());
  EXPECT_DOUBLE_EQ(eq.row_scale[1], 1.0);
  EXPECT_DOUBLE_EQ(eq.col_scale[1], 1.0);
  CscMatrix s = eq.apply(coo.to_csc());
  EXPECT_NEAR(std::abs(s.at(0, 0)), 1.0, 1e-6);
  EXPECT_NEAR(std::abs(s.at(2, 2)), 1.0, 1e-6);
}

TEST(Ruiz, ImprovesSolvabilityPipeline) {
  // Equilibrate, solve the scaled system, unscale the solution.
  CscMatrix base = gen::grid2d(8, 8, {0.3, 0.0, 0.7, 56});
  std::vector<int> ptr = base.col_ptr();
  std::vector<int> ind = base.row_ind();
  std::vector<double> val = base.values();
  for (std::size_t k = 0; k < val.size(); ++k) {
    val[k] *= std::pow(10.0, static_cast<int>(ind[k] % 7) - 3);
  }
  CscMatrix a(base.rows(), base.cols(), ptr, ind, val);
  Equilibration eq = ruiz_equilibrate(a);
  CscMatrix s = eq.apply(a);
  std::vector<double> b = test::random_vector(a.rows(), 57);
  // (Dr A Dc) y = Dr b;  x = Dc y.
  std::vector<double> bs(b.size());
  for (int i = 0; i < a.rows(); ++i) bs[i] = eq.row_scale[i] * b[i];
  std::vector<double> y = SparseLU::solve_system(s, bs);
  std::vector<double> x(y.size());
  for (int j = 0; j < a.cols(); ++j) x[j] = eq.col_scale[j] * y[j];
  EXPECT_LT(relative_residual(a, x, b), 1e-11);
}

}  // namespace
}  // namespace plu
