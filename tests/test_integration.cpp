// End-to-end integration: factor and solve across matrix classes, options
// and execution modes; verify residuals and invariants across the pipeline.
#include <gtest/gtest.h>

#include "core/sparse_lu.h"
#include "graph/eforest.h"
#include "graph/postorder.h"
#include "matrix/named_matrices.h"
#include "symbolic/static_symbolic.h"
#include "taskgraph/analysis.h"
#include "test_helpers.h"

namespace plu {
namespace {

TEST(Integration, SolveSmallMatricesAllOptionCombos) {
  for (const CscMatrix& a : test::small_matrices()) {
    std::vector<double> b = test::random_vector(a.rows(), 7);
    for (bool post : {false, true}) {
      for (auto kind : {taskgraph::GraphKind::kSStar, taskgraph::GraphKind::kEforest}) {
        Options opt;
        opt.postorder = post;
        opt.task_graph = kind;
        std::vector<double> x = SparseLU::solve_system(a, b, opt);
        double r = relative_residual(a, x, b);
        EXPECT_LT(r, 1e-10) << describe(a) << " post=" << post
                            << " graph=" << taskgraph::to_string(kind);
      }
    }
  }
}

TEST(Integration, ExecutionModesAgree) {
  for (const CscMatrix& a : test::small_matrices()) {
    std::vector<double> b = test::random_vector(a.rows(), 11);
    Options opt;
    SparseLU seq(opt);
    seq.numeric_options().mode = ExecutionMode::kSequential;
    seq.factorize(a);
    std::vector<double> xs = seq.solve(b);

    SparseLU graph_seq(opt);
    graph_seq.numeric_options().mode = ExecutionMode::kGraphSequential;
    graph_seq.factorize(a);
    std::vector<double> xg = graph_seq.solve(b);

    SparseLU thr(opt);
    thr.numeric_options().mode = ExecutionMode::kThreaded;
    thr.numeric_options().threads = 4;
    thr.factorize(a);
    std::vector<double> xt = thr.solve(b);

    for (int i = 0; i < a.rows(); ++i) {
      // Graph-sequential must agree exactly with threaded (same op sets,
      // disjoint unordered writes); sequential may differ in rounding only.
      EXPECT_NEAR(xs[i], xg[i], 1e-9);
      EXPECT_NEAR(xs[i], xt[i], 1e-9);
    }
    EXPECT_LT(relative_residual(a, xt, b), 1e-10);
  }
}

TEST(Integration, ThreadedWithoutColumnLocks) {
  // The disjointness theory says column locks are unnecessary, and the
  // drivers take none.
  for (const CscMatrix& a : test::small_matrices()) {
    std::vector<double> b = test::random_vector(a.rows(), 13);
    Options opt;
    SparseLU lu(opt);
    lu.numeric_options().mode = ExecutionMode::kThreaded;
    lu.numeric_options().threads = 8;
    lu.factorize(a);
    EXPECT_LT(relative_residual(a, lu.solve(b), b), 1e-10);
  }
}

TEST(Integration, MediumNamedMatrix) {
  // One named-suite member end to end (orsreg1 is the smallest).
  NamedMatrix nm = make_named_matrix("orsreg1");
  std::vector<double> b = test::random_vector(nm.a.rows(), 17);
  SparseLU lu;
  lu.factorize(nm.a);
  EXPECT_FALSE(lu.factorization().singular());
  std::vector<double> x = lu.solve(b);
  EXPECT_LT(relative_residual(nm.a, x, b), 1e-9);
  // Pipeline invariants on the analysis.
  const Analysis& an = lu.analysis();
  EXPECT_TRUE(an.eforest.is_postordered());
  EXPECT_TRUE(graph::verify_theorem1(an.symbolic.abar, an.eforest));
  EXPECT_TRUE(graph::verify_theorem2(an.symbolic.abar, an.eforest));
  // End-to-end permutation bookkeeping: the symbolic factorization of the
  // fully permuted input equals the pipeline's (Theorem 3 commutation).
  symbolic::SymbolicResult direct = symbolic::static_symbolic_factorization(
      an.permute_input(nm.a).pattern());
  EXPECT_TRUE(direct.abar == an.symbolic.abar);
}

TEST(Integration, RefinementImprovesResidual) {
  CscMatrix a = gen::random_sparse(80, 4.0, 0.3, 0.55, 99);
  std::vector<double> b = test::random_vector(80, 23);
  SparseLU lu;
  lu.factorize(a);
  RefineResult r = lu.solve_refined(b);
  EXPECT_LE(r.residual_history.back(), r.residual_history.front() + 1e-16);
  EXPECT_LT(r.residual_history.back(), 1e-12);
}

TEST(Integration, EforestGraphSubsetOfSStarClosure) {
  for (const CscMatrix& a : test::small_matrices()) {
    Options opt;
    opt.task_graph = taskgraph::GraphKind::kEforest;
    Analysis an_new = analyze(a, opt);
    opt.task_graph = taskgraph::GraphKind::kSStar;
    Analysis an_old = analyze(a, opt);
    EXPECT_TRUE(taskgraph::edges_subset_of_closure(an_new.graph, an_old.graph));
    EXPECT_LE(taskgraph::critical_path(an_new.graph, an_new.costs.flops).length,
              taskgraph::critical_path(an_old.graph, an_old.costs.flops).length + 1e-9);
  }
}

}  // namespace
}  // namespace plu
