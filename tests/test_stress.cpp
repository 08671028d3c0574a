// Randomized end-to-end stress sweep: for many seeds, generate a matrix of
// a seed-chosen class and size, pick options from the seed, run the full
// pipeline and check the solution against a dense reference factorization.
// This is the broad safety net across option interactions that targeted
// tests cannot enumerate.
#include <gtest/gtest.h>

#include <cmath>

#include "blas/factor.h"
#include "core/sparse_lu.h"
#include "test_helpers.h"

namespace plu {
namespace {

CscMatrix matrix_for_seed(std::uint64_t seed) {
  switch (seed % 5) {
    case 0:
      return gen::grid2d(6 + seed % 7, 5 + seed % 5,
                         {0.3 + 0.05 * (seed % 5), 0.1 * (seed % 4), 0.7, seed});
    case 1:
      return gen::grid3d(3 + seed % 3, 3 + seed % 4, 3,
                         {0.4, 0.1 * (seed % 3), 0.65, seed});
    case 2:
      return gen::banded(40 + static_cast<int>(seed % 50),
                         {-9, -7, -1, 1, 7, 9}, 0.5 + 0.05 * (seed % 6), 0.6,
                         seed);
    case 3:
      return gen::fem_p2(2 + seed % 3, 2 + seed % 3, 1 + seed % 2, seed);
    default:
      return gen::random_sparse(45 + static_cast<int>(seed % 40),
                                2.0 + 0.3 * (seed % 4), 0.2 * (seed % 5), 0.7,
                                seed);
  }
}

Options options_for_seed(std::uint64_t seed) {
  Options o;
  o.postorder = (seed / 2) % 2;
  o.amalgamate = (seed / 4) % 2;
  o.amalgamation.max_width = 4 + static_cast<int>(seed % 20);
  static constexpr taskgraph::GraphKind kKinds[] = {
      taskgraph::GraphKind::kSStar, taskgraph::GraphKind::kSStarProgramOrder,
      taskgraph::GraphKind::kEforest};
  o.task_graph = kKinds[(seed / 8) % 3];
  o.ordering = static_cast<ordering::Method>((seed / 24) % 4);
  o.scale_and_permute = (seed / 96) % 2;
  return o;
}

NumericOptions numeric_for_seed(std::uint64_t seed) {
  NumericOptions n;
  static constexpr ExecutionMode kModes[] = {ExecutionMode::kSequential,
                                             ExecutionMode::kGraphSequential,
                                             ExecutionMode::kThreaded};
  n.mode = kModes[seed % 3];
  n.threads = 2 + static_cast<int>(seed % 3);
  n.lazy_updates = (seed / 3) % 2;
  n.pivot_threshold = ((seed / 12) % 2) ? 1.0 : 0.25;
  return n;
}

class StressSweep : public ::testing::TestWithParam<int> {};

TEST_P(StressSweep, FullPipelineAgainstDenseReference) {
  const std::uint64_t seed = 10000 + GetParam() * 37;
  CscMatrix a = matrix_for_seed(seed);
  Options opt = options_for_seed(seed);
  NumericOptions nopt = numeric_for_seed(seed);

  std::vector<double> b = test::random_vector(a.rows(), seed ^ 0xabcdef);
  SparseLU lu(opt);
  lu.numeric_options() = nopt;
  lu.factorize(a);
  ASSERT_FALSE(lu.factorization().singular()) << "seed " << seed;
  std::vector<double> x = lu.solve(b);

  // Dense reference.
  blas::DenseMatrix d(a.rows(), a.cols());
  std::vector<double> dd = a.to_dense_colmajor();
  std::copy(dd.begin(), dd.end(), d.data());
  std::vector<double> xd = b;
  ASSERT_TRUE(blas::dense_solve(d, xd)) << "seed " << seed;

  double scale = 0.0;
  for (double v : xd) scale = std::max(scale, std::abs(v));
  // Threshold pivoting is the loosest arm; its growth is still tame at 0.25.
  for (int i = 0; i < a.rows(); ++i) {
    ASSERT_NEAR(x[i], xd[i], 1e-6 * (1.0 + scale))
        << "seed " << seed << " entry " << i;
  }
  EXPECT_LT(relative_residual(a, x, b), 1e-8) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StressSweep, ::testing::Range(0, 48));

}  // namespace
}  // namespace plu
