// BLAS level-3: blocked gemm against the reference engine, trsm variants
// verified by multiplying back.
#include <gtest/gtest.h>

#include <tuple>

#include "blas/dense.h"
#include "blas/level3.h"
#include "gemm_reference.h"
#include "test_helpers.h"

namespace plu::blas {
namespace {

DenseMatrix random_matrix(int m, int n, std::uint64_t seed) {
  DenseMatrix a(m, n);
  std::vector<double> v = test::random_vector(m * n, seed);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) a(i, j) = v[static_cast<std::size_t>(j) * m + i];
  return a;
}

DenseMatrix random_triangular(int n, UpLo uplo, Diag diag, std::uint64_t seed) {
  DenseMatrix a = random_matrix(n, n, seed);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      bool keep = (uplo == UpLo::Lower) ? i >= j : i <= j;
      if (!keep) a(i, j) = 0.0;
    }
    a(j, j) = (diag == Diag::Unit) ? 1.0 : 3.0 + 0.1 * j;
  }
  return a;
}

using GemmParam = std::tuple<int, int, int, int, int>;  // m,n,k,ta,tb

class GemmAgreement : public ::testing::TestWithParam<GemmParam> {};

TEST_P(GemmAgreement, BlockedMatchesReference) {
  auto [m, n, k, ta_i, tb_i] = GetParam();
  Trans ta = ta_i ? Trans::Yes : Trans::No;
  Trans tb = tb_i ? Trans::Yes : Trans::No;
  DenseMatrix a = ta_i ? random_matrix(k, m, 7) : random_matrix(m, k, 7);
  DenseMatrix b = tb_i ? random_matrix(n, k, 8) : random_matrix(k, n, 8);
  DenseMatrix c1 = random_matrix(m, n, 9);
  DenseMatrix c2 = c1;
  gemm(ta, tb, 1.3, a.view(), b.view(), 0.7, c1.view());
  gemm_reference(ta, tb, 1.3, a.view(), b.view(), 0.7, c2.view());
  EXPECT_LT(max_abs_diff(c1.view(), c2.view()), 1e-11 * (1.0 + max_abs(c2.view())));
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTransposes, GemmAgreement,
    ::testing::Values(GemmParam{1, 1, 1, 0, 0}, GemmParam{3, 5, 2, 0, 0},
                      GemmParam{65, 67, 130, 0, 0},  // crosses all block edges
                      GemmParam{64, 64, 128, 0, 0},  // exact block multiples
                      GemmParam{10, 1, 200, 0, 0}, GemmParam{1, 100, 3, 0, 0},
                      GemmParam{20, 20, 20, 1, 0}, GemmParam{20, 20, 20, 0, 1},
                      GemmParam{33, 17, 29, 1, 1}));

TEST(Gemm, BetaZeroClearsTarget) {
  DenseMatrix a = random_matrix(4, 4, 10);
  DenseMatrix b = random_matrix(4, 4, 11);
  DenseMatrix c(4, 4);
  for (int i = 0; i < 4; ++i) c(i, i) = 999.0;
  gemm(Trans::No, Trans::No, 0.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_DOUBLE_EQ(max_abs(c.view()), 0.0);
}

TEST(Gemm, KZeroOnlyScales) {
  DenseMatrix a(5, 0);
  DenseMatrix b(0, 3);
  DenseMatrix c = random_matrix(5, 3, 12);
  DenseMatrix expect = c;
  for (int j = 0; j < 3; ++j)
    for (int i = 0; i < 5; ++i) expect(i, j) *= 0.25;
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.25, c.view());
  EXPECT_LT(max_abs_diff(c.view(), expect.view()), 1e-15);
}

TEST(Gemm, SubviewsWithLargeLeadingDimension) {
  DenseMatrix big = random_matrix(10, 10, 13);
  DenseMatrix a = random_matrix(3, 4, 14);
  DenseMatrix b = random_matrix(4, 2, 15);
  DenseMatrix expect(3, 2);
  gemm_reference(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, expect.view());
  MatrixView target = big.view().block(5, 7, 3, 2);
  // Write into a sub-block of a larger matrix, then compare just the block.
  gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, target);
  EXPECT_LT(max_abs_diff(target, expect.view()), 1e-12);
  // Neighboring entries untouched.
  EXPECT_NE(big(4, 7), 0.0);
}

using TrsmParam = std::tuple<int, int, int, int, int, int>;  // m,n,side,uplo,trans,diag

class TrsmAllVariants : public ::testing::TestWithParam<TrsmParam> {};

TEST_P(TrsmAllVariants, SolutionSatisfiesEquation) {
  auto [m, n, side_i, uplo_i, trans_i, diag_i] = GetParam();
  Side side = side_i ? Side::Right : Side::Left;
  UpLo uplo = uplo_i ? UpLo::Upper : UpLo::Lower;
  Trans trans = trans_i ? Trans::Yes : Trans::No;
  Diag diag = diag_i ? Diag::Unit : Diag::NonUnit;
  const int adim = (side == Side::Left) ? m : n;
  DenseMatrix a = random_triangular(adim, uplo, diag, 20 + adim);
  DenseMatrix b = random_matrix(m, n, 21);
  DenseMatrix x = b;
  trsm(side, uplo, trans, diag, 2.0, a.view(), x.view());
  // Check op(A) X == 2 B (left) or X op(A) == 2 B (right).
  DenseMatrix lhs(m, n);
  if (side == Side::Left) {
    gemm_reference(trans, Trans::No, 1.0, a.view(), x.view(), 0.0, lhs.view());
  } else {
    gemm_reference(Trans::No, trans, 1.0, x.view(), a.view(), 0.0, lhs.view());
  }
  DenseMatrix rhs(m, n);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < m; ++i) rhs(i, j) = 2.0 * b(i, j);
  EXPECT_LT(max_abs_diff(lhs.view(), rhs.view()), 1e-9 * (1.0 + max_abs(rhs.view())));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, TrsmAllVariants,
    ::testing::Combine(::testing::Values(1, 4, 13), ::testing::Values(1, 5, 12),
                       ::testing::Values(0, 1), ::testing::Values(0, 1),
                       ::testing::Values(0, 1), ::testing::Values(0, 1)));

TEST(FlopCounts, MatchFormulas) {
  EXPECT_DOUBLE_EQ(gemm_flops(2, 3, 4), 48.0);
  EXPECT_DOUBLE_EQ(trsm_flops(Side::Left, 3, 5), 45.0);
  EXPECT_DOUBLE_EQ(trsm_flops(Side::Right, 3, 5), 75.0);
  // getrf on square n: ~2/3 n^3 asymptotically.
  double f = getrf_flops(100, 100);
  EXPECT_NEAR(f / (2.0 / 3.0 * 1e6), 1.0, 0.05);
}

}  // namespace
}  // namespace plu::blas
