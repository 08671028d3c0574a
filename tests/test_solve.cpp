// Solve-layer utilities: multi-RHS, determinant, pivot permutation, refine;
// every solve entry point against a dense reference.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <tuple>

#include "blas/factor.h"
#include "core/refine.h"
#include "core/solve.h"
#include "core/sparse_lu.h"
#include "test_helpers.h"

namespace plu {
namespace {

/// Dense determinant by Gaussian elimination (reference).
double dense_det(const CscMatrix& a) {
  const int n = a.rows();
  std::vector<double> m = a.to_dense_colmajor();
  auto at = [&](int i, int j) -> double& { return m[static_cast<std::size_t>(j) * n + i]; };
  double det = 1.0;
  for (int k = 0; k < n; ++k) {
    int piv = k;
    for (int i = k + 1; i < n; ++i) {
      if (std::abs(at(i, k)) > std::abs(at(piv, k))) piv = i;
    }
    if (at(piv, k) == 0.0) return 0.0;
    if (piv != k) {
      det = -det;
      for (int j = 0; j < n; ++j) std::swap(at(k, j), at(piv, j));
    }
    det *= at(k, k);
    for (int i = k + 1; i < n; ++i) {
      double f = at(i, k) / at(k, k);
      for (int j = k; j < n; ++j) at(i, j) -= f * at(k, j);
    }
  }
  return det;
}

TEST(Solve, AgainstDenseReference) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    std::vector<double> b = test::random_vector(a.rows(), 31);
    std::vector<double> x = f.solve(b);
    // Dense reference solve.
    blas::DenseMatrix d(a.rows(), a.cols());
    std::vector<double> dd = a.to_dense_colmajor();
    std::copy(dd.begin(), dd.end(), d.data());
    std::vector<double> xd = b;
    ASSERT_TRUE(blas::dense_solve(d, xd));
    for (int i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(x[i], xd[i], 1e-8 * (1.0 + std::abs(xd[i]))) << describe(a);
    }
  }
}

TEST(Solve, MultiRhsMatchesSingle) {
  CscMatrix a = test::small_matrices()[0];
  Analysis an = analyze(a);
  Factorization f(an, a);
  const int n = a.rows();
  const int nrhs = 3;
  std::vector<double> b = test::random_vector(n * nrhs, 33);
  blas::DenseMatrix bm(n, nrhs), xm(n, nrhs);
  std::copy(b.begin(), b.end(), bm.data());
  f.solve_matrix(bm.view(), xm.view());
  for (int r = 0; r < nrhs; ++r) {
    std::vector<double> br(b.begin() + static_cast<std::ptrdiff_t>(r) * n,
                           b.begin() + static_cast<std::ptrdiff_t>(r + 1) * n);
    std::vector<double> xr = f.solve(br);
    // gemm (three columns) and gemv (one) round differently.
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(xm(i, r), xr[i], 1e-12 * (1.0 + std::abs(xr[i])));
    }
  }
}

/// Dense solve of A x = b (or A^T x = b) as the reference.
std::vector<double> dense_reference(const CscMatrix& a,
                                    const std::vector<double>& b,
                                    bool transpose) {
  const int n = a.rows();
  const std::vector<double> dd = a.to_dense_colmajor();
  blas::DenseMatrix d(n, n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const double v = dd[static_cast<std::size_t>(j) * n + i];
      (transpose ? d(j, i) : d(i, j)) = v;
    }
  }
  std::vector<double> x = b;
  EXPECT_TRUE(blas::dense_solve(d, x));
  return x;
}

/// One matrix of each class of the 50-matrix sweep (same generators and
/// seeds as tests/test_repartition.cpp's sweep_matrices).
CscMatrix sweep_matrix(int which) {
  gen::StencilOptions g;
  switch (which) {
    case 0:
      g.seed = 103;
      g.convection = 0.45;
      return gen::grid2d(7, 5, g);
    case 1:
      g.seed = 204;
      g.convection = 0.75;  // the sweep reuses the last grid2d's options
      g.drop_probability = 0.1;
      return gen::grid3d(3, 3, 3, g);
    case 2:
      return gen::banded(49, {-7, -3, -1, 1, 3, 7}, 0.7, 0.7, 303);
    case 3:
      return gen::random_sparse(38, 2.5, 0.5, 0.8, 404);
    default:
      return gen::circuit(51, 2, 2.5, 503);
  }
}

using SolveParam = std::tuple<int, Layout, bool>;  // matrix, layout, MC64

class EverySolve : public ::testing::TestWithParam<SolveParam> {};

// solve, solve_transpose, solve_matrix at 1 and 4 right-hand sides and
// solve with kThreaded options at 1 and 4 threads, each against the dense
// reference.
TEST_P(EverySolve, MatchesDenseReference) {
  const auto [which, layout, mc64] = GetParam();
  const CscMatrix a = sweep_matrix(which);
  const int n = a.rows();
  Options opt;
  opt.layout = layout;
  opt.scale_and_permute = mc64;
  const Analysis an = analyze(a, opt);
  const Factorization f(an, a);
  ASSERT_TRUE(factor_usable(f.status()));
  // The forward error of any solve with these factors scales with the pivot
  // growth: the 2-D layout's block-restricted pivoting reaches ~4e10 on the
  // circuit matrix without MC64, where every entry point is off by ~1e-7.
  const double tol = 1e-8 * std::max(1.0, f.growth_factor());
  auto expect_close = [&](const std::vector<double>& x,
                          const std::vector<double>& ref, const char* what) {
    ASSERT_EQ(x.size(), ref.size()) << what;
    for (int i = 0; i < n; ++i) {
      EXPECT_NEAR(x[i], ref[i], tol * (1.0 + std::abs(ref[i])))
          << what << " row " << i;
    }
  };
  const std::vector<double> b = test::random_vector(n, 61);
  const std::vector<double> ref = dense_reference(a, b, false);
  expect_close(f.solve(b), ref, "solve");
  expect_close(f.solve_transpose(b), dense_reference(a, b, true),
               "solve_transpose");
  for (int nrhs : {1, 4}) {
    const std::vector<double> bs = test::random_vector(n * nrhs, 62);
    blas::DenseMatrix bm(n, nrhs), xm(n, nrhs);
    std::copy(bs.begin(), bs.end(), bm.data());
    f.solve_matrix(bm.view(), xm.view());
    for (int r = 0; r < nrhs; ++r) {
      const std::vector<double> br(bs.begin() + std::ptrdiff_t(r) * n,
                                   bs.begin() + std::ptrdiff_t(r + 1) * n);
      const std::vector<double> xr(xm.data() + std::ptrdiff_t(r) * n,
                                   xm.data() + std::ptrdiff_t(r + 1) * n);
      expect_close(xr, dense_reference(a, br, false), "solve_matrix");
    }
  }
  for (int threads : {1, 4}) {
    NumericOptions threaded;
    threaded.mode = ExecutionMode::kThreaded;
    threaded.threads = threads;
    expect_close(f.solve(b, threaded), ref, "threaded solve");
  }
}

INSTANTIATE_TEST_SUITE_P(
    SweepShapes, EverySolve,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(Layout::k1D, Layout::k2D),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<SolveParam>& info) {
      return "m" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) == Layout::k1D ? "_1d" : "_2d") +
             (std::get<2>(info.param) ? "_mc64" : "");
    });

// solve(b) is the n x 1 case of solve_matrix's panel walk, so the two agree
// bit for bit.
TEST(SolveMatrix, OneColumnBitwiseEqualsSolve) {
  for (const CscMatrix& a : test::small_matrices()) {
    for (Layout layout : {Layout::k1D, Layout::k2D}) {
      Options opt;
      opt.layout = layout;
      const Analysis an = analyze(a, opt);
      const Factorization f(an, a);
      const int n = a.rows();
      const std::vector<double> b = test::random_vector(n, 63);
      blas::DenseMatrix bm(n, 1), xm(n, 1);
      std::copy(b.begin(), b.end(), bm.data());
      f.solve_matrix(bm.view(), xm.view());
      const std::vector<double> x = f.solve(b);
      EXPECT_EQ(0, std::memcmp(x.data(), xm.data(), sizeof(double) * n))
          << describe(a) << " " << to_string(layout);
    }
  }
}

// A non-square matrix is rejected before the MC64 matching, which indexes
// its rows by column.
TEST(Solve, NonSquareRejectedBeforeMc64) {
  CooMatrix tall(4, 3);
  for (int i = 0; i < 3; ++i) tall.add(i, i, 1.0);
  tall.add(3, 0, 2.0);
  Options mc64;
  mc64.scale_and_permute = true;
  try {
    analyze(tall.to_csc(), mc64);
    ADD_FAILURE() << "no exception";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "analyze: matrix must be square");
  }
}

// A 0 x 0 matrix gets a clear error at the top of the analysis, not one
// from deep inside the supernode partition.
TEST(Solve, EmptyMatrixRejectedAtAnalysis) {
  const CscMatrix empty = CooMatrix(0, 0).to_csc();
  Options mc64;
  mc64.scale_and_permute = true;
  SparseLU lu;
  for (const std::function<void()>& call :
       {std::function<void()>([&] { analyze(empty); }),
        std::function<void()>([&] { analyze(empty, mc64); }),
        std::function<void()>([&] { lu.factorize(empty); })}) {
    try {
      call();
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "analyze: matrix is empty (0 x 0)");
    }
  }
}

TEST(Solve, DeterminantMatchesDense) {
  for (const CscMatrix& a : test::small_matrices()) {
    if (a.rows() > 70) continue;
    Analysis an = analyze(a);
    Factorization f(an, a);
    Determinant d = determinant(f);
    double ref = dense_det(a);
    ASSERT_NE(ref, 0.0);
    EXPECT_EQ(d.sign, ref > 0 ? 1 : -1) << describe(a);
    EXPECT_NEAR(d.log_abs, std::log(std::abs(ref)), 1e-6) << describe(a);
  }
}

TEST(Solve, DeterminantOfSingularIsZero) {
  CooMatrix coo(3, 3);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 0, 2.0);
  coo.add(1, 1, 4.0);  // rows 0,1 proportional
  coo.add(2, 2, 1.0);
  CscMatrix a = coo.to_csc();
  Analysis an = analyze(a);
  Factorization f(an, a);
  EXPECT_EQ(determinant(f).sign, 0);
}

TEST(Solve, PivotOldOfIsValidPermutation) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    EXPECT_TRUE(Permutation::is_valid(pivot_old_of(f)));
  }
}

TEST(Refine, ConvergesAndReportsHistory) {
  CscMatrix a = gen::random_sparse(60, 3.0, 0.4, 0.6, 41);
  Analysis an = analyze(a);
  Factorization f(an, a);
  std::vector<double> b = test::random_vector(60, 42);
  RefineOptions opt;
  opt.max_iterations = 3;
  RefineResult r = refined_solve(f, a, b, opt);
  EXPECT_GE(r.residual_history.size(), 1u);
  EXPECT_LE(r.iterations, 3);
  EXPECT_LT(r.residual_history.back(), 1e-12);
  EXPECT_TRUE(r.converged);
}

TEST(Refine, StopsImmediatelyWhenAlreadyConverged) {
  CscMatrix a = CscMatrix::identity(5);
  Analysis an = analyze(a);
  Factorization f(an, a);
  std::vector<double> b = {1, 2, 3, 4, 5};
  RefineResult r = refined_solve(f, a, b);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_TRUE(r.converged);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(r.x[i], b[i]);
}


TEST(SolveMatrix, MatchesLoopedSolves) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    const int n = a.rows();
    const int nrhs = 4;
    std::vector<double> b = test::random_vector(n * nrhs, 45);
    blas::DenseMatrix bm(n, nrhs), xm(n, nrhs);
    std::copy(b.begin(), b.end(), bm.data());
    f.solve_matrix(bm.view(), xm.view());
    for (int r = 0; r < nrhs; ++r) {
      std::vector<double> br(b.begin() + static_cast<std::ptrdiff_t>(r) * n,
                             b.begin() + static_cast<std::ptrdiff_t>(r + 1) * n);
      std::vector<double> xr = f.solve(br);
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(xm(i, r), xr[i], 1e-12 * (1.0 + std::abs(xr[i])))
            << describe(a) << " rhs " << r;
      }
    }
  }
}

TEST(SolveMatrix, WorksWithMc64Scaling) {
  CscMatrix a = gen::random_sparse(50, 3.0, 0.4, 0.7, 46);
  Options opt;
  opt.scale_and_permute = true;
  Analysis an = analyze(a, opt);
  Factorization f(an, a);
  const int n = a.rows();
  std::vector<double> b = test::random_vector(n * 2, 47);
  blas::DenseMatrix bm(n, 2), xm(n, 2);
  std::copy(b.begin(), b.end(), bm.data());
  f.solve_matrix(bm.view(), xm.view());
  for (int r = 0; r < 2; ++r) {
    std::vector<double> col(n), rhs(n);
    for (int i = 0; i < n; ++i) {
      col[i] = xm(i, r);
      rhs[i] = bm(i, r);
    }
    EXPECT_LT(relative_residual(a, col, rhs), 1e-11);
  }
}

TEST(SolveMatrix, RejectsShapeMismatch) {
  CscMatrix a = test::small_matrices()[0];
  Analysis an = analyze(a);
  Factorization f(an, a);
  blas::DenseMatrix b(a.rows(), 2), x(a.rows() - 1, 2);
  EXPECT_THROW(f.solve_matrix(b.view(), x.view()), std::invalid_argument);
}

TEST(PivotGrowth, ModestUnderPartialPivoting) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    double g = pivot_growth(f, a);
    EXPECT_GT(g, 0.0);
    // Partial pivoting keeps practical growth small on these classes.
    EXPECT_LT(g, 100.0) << describe(a);
  }
}

TEST(PivotGrowth, DetectsWeakPivotingGrowth) {
  // Exponential-growth construction for no-pivoting elimination: weak
  // diagonal (eps), strong subdiagonal (multiplier 1/eps per step) and a
  // dense last column the multipliers compound into: |U(k, n-1)| ~ eps^-k.
  // Partial pivoting swaps the subdiagonal up and stays modest; forcing the
  // diagonal (threshold -> 0) must show the blow-up.
  const int n = 16;
  const double eps = 0.1;
  CooMatrix coo(n, n);
  for (int i = 0; i < n; ++i) coo.add(i, i, i + 1 == n ? 1.0 : eps);
  for (int i = 0; i + 1 < n; ++i) coo.add(i + 1, i, 1.0);
  for (int i = 0; i + 1 < n; ++i) coo.add(i, n - 1, 1.0);
  CscMatrix a = coo.to_csc();
  Options opt;
  opt.ordering = ordering::Method::kNatural;
  opt.postorder = false;
  Analysis an = analyze(a, opt);
  NumericOptions strong, weak;
  weak.pivot_threshold = 1e-30;  // effectively never swap
  Factorization fs(an, a, strong);
  Factorization fw(an, a, weak);
  double g_strong = pivot_growth(fs, a);
  double g_weak = pivot_growth(fw, a);
  EXPECT_LT(g_strong, 100.0);
  EXPECT_GT(g_weak, 1e6);
}

}  // namespace
}  // namespace plu
