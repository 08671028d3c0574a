// Numeric factorization: L U == P Apre by dense reconstruction, factor
// shapes, execution-mode agreement, singular input handling.
#include <gtest/gtest.h>

#include <cmath>

#include "blas/factor.h"
#include "blas/level3.h"
#include "core/numeric.h"
#include "core/solve.h"
#include "test_helpers.h"

namespace plu {
namespace {

TEST(Numeric, LuReconstructsPivotedInput) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    ASSERT_FALSE(f.singular()) << describe(a);
    blas::DenseMatrix l = extract_l_dense(f);
    blas::DenseMatrix u = extract_u_dense(f);
    const int n = a.rows();
    blas::DenseMatrix prod(n, n);
    blas::gemm(blas::Trans::No, blas::Trans::No, 1.0, l.view(), u.view(), 0.0,
               prod.view());
    // P_piv * Apre as dense.
    CscMatrix apre = an.permute_input(a);
    std::vector<int> piv = pivot_old_of(f);
    EXPECT_TRUE(Permutation::is_valid(piv));
    blas::DenseMatrix pa(n, n);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < n; ++i) pa(i, j) = apre.at(piv[i], j);
    }
    double scale = blas::max_abs(pa.view());
    EXPECT_LT(blas::max_abs_diff(prod.view(), pa.view()), 1e-10 * (1 + scale))
        << describe(a);
  }
}

TEST(Numeric, FactorsHaveTriangularShape) {
  CscMatrix a = test::small_matrices()[0];
  Analysis an = analyze(a);
  Factorization f(an, a);
  blas::DenseMatrix l = extract_l_dense(f);
  blas::DenseMatrix u = extract_u_dense(f);
  const int n = a.rows();
  for (int j = 0; j < n; ++j) {
    EXPECT_DOUBLE_EQ(l(j, j), 1.0);
    for (int i = 0; i < j; ++i) EXPECT_DOUBLE_EQ(l(i, j), 0.0);
    for (int i = j + 1; i < n; ++i) EXPECT_DOUBLE_EQ(u(i, j), 0.0);
  }
}

TEST(Numeric, PivotsBoundMultipliers) {
  // Partial pivoting: every multiplier |l_ij| <= 1.
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    blas::DenseMatrix l = extract_l_dense(f);
    EXPECT_LE(blas::max_abs(l.view()), 1.0 + 1e-12) << describe(a);
  }
}

TEST(Numeric, GraphKindsProduceSameFactors) {
  CscMatrix a = test::small_matrices()[2];
  Options o1, o2;
  o1.task_graph = taskgraph::GraphKind::kSStar;
  o2.task_graph = taskgraph::GraphKind::kEforest;
  Analysis a1 = analyze(a, o1), a2 = analyze(a, o2);
  NumericOptions nopt;
  nopt.mode = ExecutionMode::kGraphSequential;
  Factorization f1(a1, a, nopt), f2(a2, a, nopt);
  blas::DenseMatrix u1 = extract_u_dense(f1), u2 = extract_u_dense(f2);
  EXPECT_LT(blas::max_abs_diff(u1.view(), u2.view()),
            1e-10 * (1 + blas::max_abs(u1.view())));
}

TEST(Numeric, SingularMatrixFlagged) {
  // Numerically singular: two identical rows, structure nonsingular.
  CooMatrix coo(4, 4);
  for (int i = 0; i < 4; ++i) coo.add(i, i, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 0, 2.0);
  CscMatrix a0 = coo.to_csc();
  // Make rows 0 and 1 proportional: [1 2 . .] and [2 4 . .].
  CooMatrix coo2(4, 4);
  coo2.add(0, 0, 1.0);
  coo2.add(0, 1, 2.0);
  coo2.add(1, 0, 2.0);
  coo2.add(1, 1, 4.0);
  coo2.add(2, 2, 1.0);
  coo2.add(3, 3, 1.0);
  CscMatrix a = coo2.to_csc();
  Analysis an = analyze(a);
  Factorization f(an, a);
  EXPECT_TRUE(f.singular());
  EXPECT_GE(f.zero_pivots(), 1);
}

TEST(Numeric, SizeMismatchThrows) {
  CscMatrix a = test::small_matrices()[0];
  CscMatrix b = test::small_matrices()[1];
  Analysis an = analyze(a);
  EXPECT_THROW(Factorization(an, b), std::invalid_argument);
}

TEST(Numeric, RefactorizeSameStructureNewValues) {
  CscMatrix a = gen::grid2d(8, 8, {});
  Analysis an = analyze(a);
  Factorization f1(an, a);
  // Same pattern, scaled values.
  CscMatrix a2 = a;
  for (double& v : a2.values()) v *= 3.0;
  Factorization f2(an, a2);
  std::vector<double> b = test::random_vector(a.rows(), 3);
  std::vector<double> x1 = f1.solve(b);
  std::vector<double> x2 = f2.solve(b);
  for (int i = 0; i < a.rows(); ++i) EXPECT_NEAR(x2[i] * 3.0, x1[i], 1e-8);
}

TEST(RelativeResidual, ZeroForExactSolve) {
  CscMatrix a = CscMatrix::identity(4);
  std::vector<double> x = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(relative_residual(a, x, x), 0.0);
  std::vector<double> wrong = {2, 2, 3, 4};
  EXPECT_GT(relative_residual(a, wrong, x), 0.0);
}


TEST(SchurComplement, MatchesDenseReferenceWithoutPivoting) {
  // Strongly diagonally dominant => no interchanges happen, so the dense
  // reference S = A22 - A21 A11^{-1} A12 compares entrywise.
  CscMatrix base = gen::grid2d(6, 6, {0.2, 0.0, 4.0, 71});
  Options opt;
  Analysis an = analyze(base, opt);
  const int nb = an.blocks.num_blocks();
  ASSERT_GT(nb, 2);
  const int split = nb / 2;
  NumericOptions nopt;
  nopt.stop_after_block = split;
  // Forcing the diagonal pivot (threshold 0) with a dominant diagonal keeps
  // the elimination stable AND swap-free, so the dense reference lines up
  // entrywise.
  nopt.pivot_threshold = 0.0;
  Factorization f(an, base, nopt);
  ASSERT_TRUE(f.partial());
  EXPECT_EQ(f.factored_blocks(), split);
  EXPECT_EQ(f.pivot_interchanges(), 0);
  blas::DenseMatrix s = f.schur_complement();

  // Dense reference on the permuted matrix.
  CscMatrix apre = an.permute_input(base);
  const int n = apre.rows();
  const int k = an.blocks.part.first(split);
  const int m = n - k;
  std::vector<double> dd = apre.to_dense_colmajor();
  blas::DenseMatrix full(n, n);
  std::copy(dd.begin(), dd.end(), full.data());
  // A11^{-1} A12 via dense LU of the leading block.
  blas::DenseMatrix a11(k, k), a12(k, m), a21(m, k), a22(m, m);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      double v = full(i, j);
      if (i < k && j < k) a11(i, j) = v;
      else if (i < k) a12(i, j - k) = v;
      else if (j < k) a21(i - k, j) = v;
      else a22(i - k, j - k) = v;
    }
  }
  std::vector<int> ipiv;
  ASSERT_EQ(blas::getrf(a11.view(), ipiv), 0);
  blas::getrs(blas::Trans::No, a11.view(), ipiv, a12.view());
  blas::gemm(blas::Trans::No, blas::Trans::No, -1.0, a21.view(), a12.view(), 1.0,
             a22.view());
  ASSERT_EQ(s.rows(), m);
  EXPECT_LT(blas::max_abs_diff(s.view(), a22.view()),
            1e-9 * (1.0 + blas::max_abs(a22.view())));
}

TEST(SchurComplement, DeterminantIdentityWithPivoting) {
  // With pivoting the entrywise reference shifts rows, but the determinant
  // identity det(Apre) = +-prod(U11 diag) * det(S) still pins S down.
  CscMatrix a = test::small_matrices()[4];
  Analysis an = analyze(a);
  const int nb = an.blocks.num_blocks();
  ASSERT_GT(nb, 3);
  const int split = nb / 2;
  NumericOptions nopt;
  nopt.stop_after_block = split;
  Factorization fp(an, a, nopt);
  blas::DenseMatrix s = fp.schur_complement();
  // det(S) via dense LU.
  std::vector<int> ipiv;
  blas::DenseMatrix slu = s;
  ASSERT_EQ(blas::getrf(slu.view(), ipiv), 0);
  double log_s = 0.0;
  int sign_s = 1;
  for (int i = 0; i < s.rows(); ++i) {
    double d = slu(i, i);
    if (d < 0) sign_s = -sign_s;
    log_s += std::log(std::abs(d));
  }
  for (std::size_t c = 0; c < ipiv.size(); ++c) {
    if (ipiv[c] != static_cast<int>(c)) sign_s = -sign_s;
  }
  // log|det leading U| + pivot signs from the partial factorization.
  double log_u = 0.0;
  int sign_u = 1;
  for (int k = 0; k < split; ++k) {
    blas::ConstMatrixView panel = fp.blocks().panel(k);
    for (int c = 0; c < an.blocks.part.width(k); ++c) {
      double d = panel(c, c);
      if (d < 0) sign_u = -sign_u;
      log_u += std::log(std::abs(d));
    }
    const auto& piv = fp.panel_ipiv(k);
    for (std::size_t c = 0; c < piv.size(); ++c) {
      if (piv[c] != static_cast<int>(c)) sign_u = -sign_u;
    }
  }
  // Full factorization's determinant of Apre (undo the analysis perms'
  // sign and any scaling to stay in the Apre frame).
  Factorization ff(an, a);
  double log_full = 0.0;
  int sign_full = 1;
  for (int k = 0; k < nb; ++k) {
    blas::ConstMatrixView panel = ff.blocks().panel(k);
    for (int c = 0; c < an.blocks.part.width(k); ++c) {
      double d = panel(c, c);
      if (d < 0) sign_full = -sign_full;
      log_full += std::log(std::abs(d));
    }
    const auto& piv = ff.panel_ipiv(k);
    for (std::size_t c = 0; c < piv.size(); ++c) {
      if (piv[c] != static_cast<int>(c)) sign_full = -sign_full;
    }
  }
  EXPECT_NEAR(log_u + log_s, log_full, 1e-8 * (1.0 + std::abs(log_full)));
  EXPECT_EQ(sign_u * sign_s, sign_full);
}

TEST(SchurComplement, GuardsAndErrors) {
  CscMatrix a = test::small_matrices()[0];
  Analysis an = analyze(a);
  NumericOptions nopt;
  nopt.stop_after_block = 1;
  Factorization f(an, a, nopt);
  std::vector<double> b(a.rows(), 1.0);
  EXPECT_THROW(f.solve(b), std::logic_error);
  EXPECT_THROW(f.solve_transpose(b), std::logic_error);
  Factorization full(an, a);
  EXPECT_FALSE(full.partial());
  EXPECT_THROW(full.schur_complement(), std::logic_error);
}

}  // namespace
}  // namespace plu
