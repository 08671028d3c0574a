// Cross-cutting property sweeps (parameterized): every pipeline invariant
// checked on every matrix class under every option combination.
#include <gtest/gtest.h>

#include <tuple>

#include "core/sparse_lu.h"
#include "graph/eforest.h"
#include "graph/postorder.h"
#include "symbolic/blocks.h"
#include "taskgraph/analysis.h"
#include "test_helpers.h"

namespace plu {
namespace {

struct MatrixCase {
  const char* name;
  CscMatrix (*make)();
};

const MatrixCase kCases[] = {
    {"grid2d", [] { return gen::grid2d(9, 8, {0.5, 0.0, 0.7, 101}); }},
    {"grid2d_thin", [] { return gen::grid2d(10, 10, {0.3, 0.4, 0.7, 102}); }},
    {"grid3d", [] { return gen::grid3d(4, 4, 3, {0.4, 0.0, 0.7, 103}); }},
    {"banded", [] { return gen::banded(70, {-9, -8, -1, 1, 8, 9}, 0.65, 0.6, 104); }},
    {"fem", [] { return gen::fem_p2(3, 3, 1, 105); }},
    {"random_sym", [] { return gen::random_sparse(55, 3.0, 0.8, 0.7, 106); }},
    {"random_unsym", [] { return gen::random_sparse(55, 3.0, 0.1, 0.7, 107); }},
    {"permuted_grid",
     [] { return gen::random_symmetric_permutation(gen::grid2d(8, 8, {0.4, 0.0, 0.7, 108}), 109); }},
};

const char* const kKindNames[] = {"_sstar", "_sstarpo", "_eforest"};

using Param = std::tuple<int, bool, bool, int, int, bool>;
// case index, postorder, amalgamate, graph kind, ordering method,
// extensions (MC64 scaling + threshold pivoting + LazyS+)

class PipelineProperties : public ::testing::TestWithParam<Param> {
 protected:
  CscMatrix matrix() const { return kCases[std::get<0>(GetParam())].make(); }
  Options options() const {
    Options o;
    o.postorder = std::get<1>(GetParam());
    o.amalgamate = std::get<2>(GetParam());
    static constexpr taskgraph::GraphKind kKinds[] = {
        taskgraph::GraphKind::kSStar, taskgraph::GraphKind::kSStarProgramOrder,
        taskgraph::GraphKind::kEforest};
    o.task_graph = kKinds[std::get<3>(GetParam())];
    o.ordering = static_cast<ordering::Method>(std::get<4>(GetParam()));
    o.scale_and_permute = std::get<5>(GetParam());
    return o;
  }
  NumericOptions numeric_options() const {
    NumericOptions n;
    if (std::get<5>(GetParam())) {
      n.pivot_threshold = 0.2;
      n.lazy_updates = true;
    }
    return n;
  }
};

TEST_P(PipelineProperties, AllInvariantsAndResidual) {
  CscMatrix a = matrix();
  Options opt = options();
  Analysis an = analyze(a, opt);

  // --- structural invariants ---
  const Pattern& abar = an.symbolic.abar;
  EXPECT_TRUE(abar.valid());
  EXPECT_TRUE(an.permute_input(a).pattern().subset_of(abar));
  EXPECT_TRUE(an.eforest.valid());
  EXPECT_TRUE(an.eforest.is_topological());
  EXPECT_TRUE(graph::verify_theorem1(abar, an.eforest));
  EXPECT_TRUE(graph::verify_theorem2(abar, an.eforest));
  EXPECT_TRUE(graph::verify_row_branch(abar, an.eforest));
  EXPECT_TRUE(graph::verify_candidate_disjointness(abar, an.eforest));
  if (opt.postorder) {
    EXPECT_TRUE(an.eforest.is_postordered());
    EXPECT_TRUE(graph::is_block_upper_triangular(abar, an.diag_block_sizes));
  }

  // --- partition / block invariants ---
  EXPECT_TRUE(an.partition.valid());
  EXPECT_LE(an.partition.count(), an.exact_partition.count());
  EXPECT_TRUE(symbolic::block_closure_holds(an.blocks.bpattern));
  EXPECT_TRUE(an.blocks.beforest.is_topological());
  // Block-level disjointness is not guaranteed on the pairwise-closed
  // pattern; row by row it is (the lock-free executor relies on it).
  EXPECT_EQ(symbolic::row_writer_chain_violations(an.blocks, an.block_plan),
            0);

  // --- task graph invariants ---
  EXPECT_TRUE(taskgraph::is_acyclic(an.graph));
  EXPECT_EQ(static_cast<int>(an.costs.flops.size()), an.graph.size());

  // --- numeric end-to-end, all execution modes ---
  std::vector<double> b = test::random_vector(a.rows(), 777);
  for (ExecutionMode mode : {ExecutionMode::kSequential,
                             ExecutionMode::kGraphSequential,
                             ExecutionMode::kThreaded}) {
    NumericOptions nopt = numeric_options();
    nopt.mode = mode;
    nopt.threads = 4;
    Factorization f(an, a, nopt);
    EXPECT_FALSE(f.singular());
    std::vector<double> x = f.solve(b);
    // Threshold pivoting (extensions arm) loosens the bound slightly.
    double tol = std::get<5>(GetParam()) ? 1e-7 : 1e-9;
    EXPECT_LT(relative_residual(a, x, b), tol)
        << kCases[std::get<0>(GetParam())].name << " mode=" << static_cast<int>(mode);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PipelineProperties,
    ::testing::Combine(::testing::Range(0, 8),          // matrix case
                       ::testing::Bool(),               // postorder
                       ::testing::Bool(),               // amalgamate
                       ::testing::Values(0, 1, 2),      // graph kind
                       ::testing::Values(0, 1, 2, 3),   // ordering method
                       ::testing::Bool()),              // extensions
    [](const ::testing::TestParamInfo<Param>& info) {
      const auto& p = info.param;
      std::string name = kCases[std::get<0>(p)].name;
      name += std::get<1>(p) ? "_post" : "_nopost";
      name += std::get<2>(p) ? "_amal" : "_noamal";
      name += kKindNames[std::get<3>(p)];
      name += "_ord";
      name += std::to_string(std::get<4>(p));
      name += std::get<5>(p) ? "_ext" : "_base";
      return name;
    });

}  // namespace
}  // namespace plu
