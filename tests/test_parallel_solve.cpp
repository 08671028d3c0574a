// ParallelSolver, the forwarding shim over Factorization::solve with
// threaded options: bitwise agreement with the one-thread solve and the
// solve's error contract, through the shim and through SparseLU::solve.
#include <gtest/gtest.h>

#include <cstring>

#include "core/parallel_solve.h"
#include "core/sparse_lu.h"
#include "test_helpers.h"

namespace plu {
namespace {

NumericOptions threaded(int threads) {
  NumericOptions opt;
  opt.mode = ExecutionMode::kThreaded;
  opt.threads = threads;
  return opt;
}

TEST(ParallelSolve, AgreesWithSequentialSolve) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    ParallelSolver ps(f);
    std::vector<double> b = test::random_vector(a.rows(), 71);
    std::vector<double> xs = f.solve(b);
    for (int threads : {1, 4}) {
      std::vector<double> xp = ps.solve(b, threads);
      ASSERT_EQ(xs.size(), xp.size());
      EXPECT_EQ(0, std::memcmp(xs.data(), xp.data(), 8 * xs.size()))
          << describe(a) << " threads=" << threads;
    }
  }
}

TEST(ParallelSolve, RejectsWrongSizeRhs) {
  CscMatrix a = test::small_matrices()[0];
  Analysis an = analyze(a);
  Factorization f(an, a);
  ParallelSolver ps(f);
  std::vector<double> short_b(a.rows() - 1, 1.0);
  EXPECT_THROW(ps.solve(short_b, 1), std::invalid_argument);
  EXPECT_THROW(ps.solve(std::vector<double>(a.rows() + 1, 1.0), 4),
               std::invalid_argument);
  SparseLU lu;
  lu.numeric_options() = threaded(2);
  lu.factorize(a);
  EXPECT_THROW(lu.solve(short_b), std::invalid_argument);
}

TEST(ParallelSolve, SingularFactorizationThrows) {
  // Rows 0 and 1 proportional: structurally fine, numerically singular.
  CooMatrix coo(4, 4);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 0, 2.0);
  coo.add(1, 1, 4.0);
  coo.add(2, 2, 1.0);
  coo.add(3, 3, 1.0);
  CscMatrix a = coo.to_csc();
  const std::vector<double> b(4, 1.0);
  Analysis an = analyze(a);
  Factorization f(an, a);
  ASSERT_EQ(f.status(), FactorStatus::kSingular);
  ParallelSolver ps(f);
  EXPECT_THROW(ps.solve(b, 1), std::runtime_error);
  EXPECT_THROW(ps.solve(b, 4), std::runtime_error);
  SparseLU lu;
  lu.numeric_options() = threaded(4);
  lu.factorize(a);
  ASSERT_EQ(lu.factor_status(), FactorStatus::kSingular);
  EXPECT_THROW(lu.solve(b), std::runtime_error);
}

}  // namespace
}  // namespace plu
