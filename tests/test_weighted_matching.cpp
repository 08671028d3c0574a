// Maximum-product transversal with scaling (MC64-class): optimality against
// brute force, the I-matrix property, and the pipeline integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/solve.h"
#include "core/sparse_lu.h"
#include "graph/weighted_matching.h"
#include "test_helpers.h"

namespace plu::graph {
namespace {

/// Brute-force max product over all permutations (small n).
double brute_best_log_product(const CscMatrix& a) {
  const int n = a.rows();
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = -std::numeric_limits<double>::infinity();
  do {
    double lp = 0.0;
    bool ok = true;
    for (int j = 0; j < n && ok; ++j) {
      double v = std::abs(a.at(perm[j], j));
      if (v == 0.0) {
        ok = false;
      } else {
        lp += std::log(v);
      }
    }
    if (ok) best = std::max(best, lp);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(WeightedMatching, OptimalOnSmallRandomMatrices) {
  for (int trial = 0; trial < 30; ++trial) {
    CscMatrix a = gen::random_sparse(7, 2.0, 0.4, 0.8, 4000 + trial);
    auto wm = max_product_transversal(a);
    ASSERT_TRUE(wm.has_value()) << trial;
    double brute = brute_best_log_product(a);
    EXPECT_NEAR(wm->log_product, brute, 1e-9 * (1.0 + std::abs(brute))) << trial;
  }
}

TEST(WeightedMatching, DiagonalIsMatchedAndNonzero) {
  for (const CscMatrix& a : test::small_matrices()) {
    auto wm = max_product_transversal(a);
    ASSERT_TRUE(wm.has_value());
    for (int j = 0; j < a.cols(); ++j) {
      EXPECT_NE(a.at(wm->row_perm.old_of(j), j), 0.0);
    }
  }
}

TEST(WeightedMatching, ScalingGivesIMatrix) {
  for (const CscMatrix& a : test::small_matrices()) {
    auto wm = max_product_transversal(a);
    ASSERT_TRUE(wm.has_value());
    Pattern p = a.pattern();
    for (int j = 0; j < a.cols(); ++j) {
      for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
        if (a.value(k) == 0.0) continue;
        int i = a.row_index(k);
        double scaled =
            std::abs(wm->row_scale[i] * a.value(k) * wm->col_scale[j]);
        EXPECT_LE(scaled, 1.0 + 1e-9) << describe(a) << " (" << i << "," << j << ")";
      }
      // Matched entry is (close to) exactly 1.
      int mi = wm->row_perm.old_of(j);
      double diag = std::abs(wm->row_scale[mi] * a.at(mi, j) * wm->col_scale[j]);
      EXPECT_NEAR(diag, 1.0, 1e-9);
    }
    (void)p;
  }
}

TEST(WeightedMatching, DetectsStructuralSingularity) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(2, 1, 1.0);
  coo.add(2, 2, 1.0);
  EXPECT_EQ(max_product_transversal(coo.to_csc()), std::nullopt);
  // Explicit zero values are structurally absent.
  CooMatrix z(2, 2);
  z.add(0, 0, 0.0);
  z.add(0, 1, 1.0);
  z.add(1, 0, 1.0);
  z.add(1, 1, 0.0);
  auto wm = max_product_transversal(z.to_csc());
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->row_perm.old_of(0), 1);
}

TEST(WeightedMatching, RejectsNonSquareInput) {
  // A 4 x 3 matrix with a full column rank pattern: the row arrays are
  // sized by the column count, so it must be refused before any of them is
  // indexed by a row.
  CooMatrix tall(4, 3);
  for (int j = 0; j < 3; ++j) {
    tall.add(j, j, 2.0);
    tall.add(3, j, 5.0);
  }
  EXPECT_THROW(max_product_transversal(tall.to_csc()), std::invalid_argument);
  CooMatrix wide(3, 4);
  for (int i = 0; i < 3; ++i) wide.add(i, i + 1, 1.0);
  EXPECT_THROW(max_product_transversal(wide.to_csc()), std::invalid_argument);
}

TEST(WeightedMatching, PicksLargeEntriesOverSmallDiagonal) {
  // Diagonal is tiny, off-diagonal cycle is large: the matching must leave
  // the natural diagonal.
  CooMatrix coo(3, 3);
  for (int i = 0; i < 3; ++i) coo.add(i, i, 1e-8);
  coo.add(0, 1, 5.0);
  coo.add(1, 2, 4.0);
  coo.add(2, 0, 3.0);
  auto wm = max_product_transversal(coo.to_csc());
  ASSERT_TRUE(wm.has_value());
  EXPECT_EQ(wm->row_perm.old_of(0), 2);
  EXPECT_EQ(wm->row_perm.old_of(1), 0);
  EXPECT_EQ(wm->row_perm.old_of(2), 1);
}

TEST(ScaleAndPermute, PipelineSolvesBadlyScaledSystems) {
  // A system with 12 orders of magnitude between row scales: without MC64
  // preprocessing the factorization still works here (full partial
  // pivoting), but the scaled pipeline must too, and its Apre is an
  // I-matrix.
  CscMatrix base = gen::grid2d(9, 9, {0.4, 0.0, 0.7, 90});
  std::vector<int> ptr = base.col_ptr();
  std::vector<int> ind = base.row_ind();
  std::vector<double> val = base.values();
  for (int j = 0; j < base.cols(); ++j) {
    for (int k = ptr[j]; k < ptr[j + 1]; ++k) {
      val[k] *= std::pow(10.0, (ind[k] % 5) * 3 - 6);  // wild row scaling
    }
  }
  CscMatrix a(base.rows(), base.cols(), ptr, ind, val);

  Options opt;
  opt.scale_and_permute = true;
  SparseLU lu(opt);
  lu.factorize(a);
  const Analysis& an = lu.analysis();
  ASSERT_TRUE(an.scaled());
  // Apre is an I-matrix: max abs 1, unit diagonal.
  CscMatrix apre = an.permute_input(a);
  EXPECT_LE(apre.norm_inf() / apre.rows(), 1.0 + 1e-9);
  double mx = 0.0;
  for (double v : apre.values()) mx = std::max(mx, std::abs(v));
  EXPECT_NEAR(mx, 1.0, 1e-9);
  for (int j = 0; j < apre.cols(); ++j) {
    EXPECT_NEAR(std::abs(apre.at(j, j)), 1.0, 1e-9);
  }
  std::vector<double> b = test::random_vector(a.rows(), 91);
  std::vector<double> x = lu.solve(b);
  EXPECT_LT(relative_residual(a, x, b), 1e-12);
  // Transpose and threaded solves honor the scaling too.
  std::vector<double> xt = lu.solve_transpose(b);
  std::vector<double> r;
  a.matvec_transpose(xt, r);
  double err = 0, scale = 0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    err = std::max(err, std::abs(r[i] - b[i]));
    scale = std::max(scale, std::abs(b[i]));
  }
  EXPECT_LT(err, 1e-9 * (1 + scale));
  lu.numeric_options().mode = ExecutionMode::kThreaded;
  lu.numeric_options().threads = 3;
  std::vector<double> xp = lu.solve(b);
  EXPECT_LT(relative_residual(a, xp, b), 1e-11);
}

TEST(ScaleAndPermute, DeterminantAccountsForScaling) {
  CscMatrix a = gen::random_sparse(8, 2.0, 0.5, 0.8, 92);
  Options scaled_opt;
  scaled_opt.scale_and_permute = true;
  Analysis an_plain = analyze(a);
  Analysis an_scaled = analyze(a, scaled_opt);
  Factorization f1(an_plain, a);
  Factorization f2(an_scaled, a);
  Determinant d1 = determinant(f1);
  Determinant d2 = determinant(f2);
  EXPECT_EQ(d1.sign, d2.sign);
  EXPECT_NEAR(d1.log_abs, d2.log_abs, 1e-8 * (1.0 + std::abs(d1.log_abs)));
}

TEST(ScaleAndPermute, AllSmallMatricesStillSolve) {
  for (const CscMatrix& a : test::small_matrices()) {
    Options opt;
    opt.scale_and_permute = true;
    std::vector<double> b = test::random_vector(a.rows(), 93);
    std::vector<double> x = SparseLU::solve_system(a, b, opt);
    EXPECT_LT(relative_residual(a, x, b), 1e-11) << describe(a);
  }
}

}  // namespace
}  // namespace plu::graph
