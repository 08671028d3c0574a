// Dense factorization kernels: getf2/getrf reconstruct P A = L U, laswp
// round-trips, getrs solves, singular handling.
#include <gtest/gtest.h>

#include <cmath>

#include "blas/factor.h"
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

/// Reconstructs P A from the LU output and compares against the original.
void expect_lu_reconstructs(const DenseMatrix& original, const DenseMatrix& lu,
                            const std::vector<int>& ipiv, double tol) {
  const int m = original.rows();
  const int n = original.cols();
  const int p = std::min(m, n);
  // Build L (m x p, unit diag) and U (p x n).
  DenseMatrix l(m, p), u(p, n);
  for (int j = 0; j < p; ++j) {
    l(j, j) = 1.0;
    for (int i = j + 1; i < m; ++i) l(i, j) = lu(i, j);
  }
  for (int j = 0; j < n; ++j)
    for (int i = 0; i <= std::min(j, p - 1); ++i) u(i, j) = lu(i, j);
  DenseMatrix prod(m, n);
  gemm_reference(Trans::No, Trans::No, 1.0, l.view(), u.view(), 0.0, prod.view());
  // Apply the pivots to a copy of the original.
  DenseMatrix pa = original;
  laswp(pa.view(), ipiv, 0, p);
  EXPECT_LT(max_abs_diff(prod.view(), pa.view()), tol);
}

using Shape = std::pair<int, int>;

class GetrfShapes : public ::testing::TestWithParam<Shape> {};

TEST_P(GetrfShapes, ReconstructsPA) {
  auto [m, n] = GetParam();
  DenseMatrix a = random_matrix(m, n, 60 + m * 31 + n);
  DenseMatrix lu = a;
  std::vector<int> ipiv;
  int info = getrf(lu.view(), ipiv, 8);
  EXPECT_EQ(info, 0);
  EXPECT_EQ(static_cast<int>(ipiv.size()), std::min(m, n));
  expect_lu_reconstructs(a, lu, ipiv, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Shapes, GetrfShapes,
                         ::testing::Values(Shape{1, 1}, Shape{4, 4}, Shape{9, 3},
                                           Shape{3, 9}, Shape{32, 32}, Shape{50, 20},
                                           Shape{65, 65}, Shape{40, 64}));

TEST(Getf2, MatchesGetrf) {
  DenseMatrix a = random_matrix(30, 30, 70);
  DenseMatrix lu1 = a, lu2 = a;
  std::vector<int> p1, p2;
  EXPECT_EQ(getf2(lu1.view(), p1), 0);
  EXPECT_EQ(getrf(lu2.view(), p2, 8), 0);
  EXPECT_EQ(p1, p2);
  EXPECT_LT(max_abs_diff(lu1.view(), lu2.view()), 1e-11);
}

TEST(Getf2, PicksLargestPivot) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 0) = -5.0;
  a(0, 1) = 2.0;
  a(1, 1) = 1.0;
  std::vector<int> ipiv;
  EXPECT_EQ(getf2(a.view(), ipiv), 0);
  EXPECT_EQ(ipiv[0], 1);  // row 1 has the larger magnitude in column 0
  EXPECT_DOUBLE_EQ(a(0, 0), -5.0);
}

TEST(Getf2, ReportsFirstZeroColumn) {
  DenseMatrix a(3, 3);
  // Column 1 entirely zero below and at the diagonal after step 0.
  a(0, 0) = 1.0;
  a(2, 2) = 1.0;
  std::vector<int> ipiv;
  int info = getf2(a.view(), ipiv);
  EXPECT_EQ(info, 2);  // 1-based index of the singular column
}

TEST(Laswp, ReverseUndoesForward) {
  DenseMatrix a = random_matrix(6, 4, 80);
  DenseMatrix b = a;
  std::vector<int> ipiv = {3, 1, 5, 3};
  laswp(b.view(), ipiv, 0, 4);
  laswp_reverse(b.view(), ipiv, 0, 4);
  EXPECT_LT(max_abs_diff(a.view(), b.view()), 0.0 + 1e-300);
}

TEST(Getrs, SolvesBothTranspositions) {
  const int n = 24;
  DenseMatrix a = random_matrix(n, n, 90);
  for (int i = 0; i < n; ++i) a(i, i) += n;  // well-conditioned
  DenseMatrix lu = a;
  std::vector<int> ipiv;
  ASSERT_EQ(getrf(lu.view(), ipiv, 8), 0);

  std::vector<double> x_true = test::random_vector(n, 91);
  // b = A x.
  std::vector<double> b(n, 0.0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) b[i] += a(i, j) * x_true[j];
  MatrixView bv(b.data(), n, 1);
  getrs(Trans::No, lu.view(), ipiv, bv);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-9);

  // bt = A^T x.
  std::vector<double> bt(n, 0.0);
  for (int j = 0; j < n; ++j)
    for (int i = 0; i < n; ++i) bt[j] += a(i, j) * x_true[i];
  MatrixView btv(bt.data(), n, 1);
  getrs(Trans::Yes, lu.view(), ipiv, btv);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(bt[i], x_true[i], 1e-9);
}

TEST(DenseSolve, SolvesAndDetectsSingular) {
  DenseMatrix a = random_matrix(10, 10, 95);
  for (int i = 0; i < 10; ++i) a(i, i) += 10.0;
  std::vector<double> x_true = test::random_vector(10, 96);
  std::vector<double> b(10, 0.0);
  for (int j = 0; j < 10; ++j)
    for (int i = 0; i < 10; ++i) b[i] += a(i, j) * x_true[j];
  ASSERT_TRUE(dense_solve(a, b));
  for (int i = 0; i < 10; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-10);

  DenseMatrix z(3, 3);  // all zero => singular
  std::vector<double> rhs = {1, 2, 3};
  EXPECT_FALSE(dense_solve(z, rhs));
}

TEST(InfNorm, MaxRowSum) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = -2;
  a(1, 0) = 3;
  a(1, 1) = 1;
  EXPECT_DOUBLE_EQ(inf_norm(a.view()), 4.0);
}

}  // namespace
}  // namespace plu::blas
