// In-place refactorization contract (Factorization::refactor and
// SparseLU::factorize on an analyzed pattern).
//
// Refactorizing new values of an analyzed pattern reuses the factorization
// object and its block slab: the slab is zeroed once, the values are
// scattered through the slots fixed at analysis time, and every per-run
// result is reset.  The result must be BITWISE what a fresh Factorization on
// the same analysis produces -- factors, pivot sequences, status, growth
// factor, min pivot ratio -- while the object address and its storage stay
// put.  A breakdown round must report what a fresh run reports, and the
// round after it must be bitwise fresh again (proof that nothing of the
// broken run leaks into the next).  The 4-thread arm (tests named
// *Threaded*) carries the `sanitize` ctest label.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sparse_lu.h"
#include "matrix/coo.h"
#include "matrix/generators.h"
#include "test_helpers.h"

namespace plu {
namespace {

struct Arm {
  ExecutionMode mode;
  int threads;
  Layout layout;
  bool scale_and_permute;

  std::string name() const {
    return std::string(mode == ExecutionMode::kThreaded ? "threaded" : "seq") +
           (layout == Layout::k2D ? "/2d" : "/1d") +
           (scale_and_permute ? "/scaled" : "");
  }
  Options options() const {
    Options o;
    o.layout = layout;
    o.scale_and_permute = scale_and_permute;
    return o;
  }
  /// Both layouts' threaded schedules are deterministic: the graph orders
  /// every pair of writers of one entry.
  NumericOptions numeric() const {
    NumericOptions n;
    n.mode = mode;
    n.threads = threads;
    return n;
  }
};

std::vector<Arm> arms(ExecutionMode mode, int threads,
                      std::vector<Layout> layouts = {Layout::k1D,
                                                     Layout::k2D}) {
  std::vector<Arm> out;
  for (Layout layout : layouts) {
    for (bool scale : {false, true}) out.push_back({mode, threads, layout, scale});
  }
  return out;
}

// Same five matrix classes x ten seeds as the bitwise and race gates.
std::vector<CscMatrix> sweep_matrices() {
  std::vector<CscMatrix> out;
  gen::StencilOptions g;
  for (std::uint64_t s = 0; s < 10; ++s) {
    g.seed = 100 + s;
    g.convection = 0.3 + 0.05 * s;
    out.push_back(gen::grid2d(4 + static_cast<int>(s), 5, g));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    g.seed = 200 + s;
    g.drop_probability = 0.1;
    out.push_back(gen::grid3d(3, 3, 2 + static_cast<int>(s % 3), g));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(gen::banded(40 + 3 * static_cast<int>(s),
                              {-7, -3, -1, 1, 3, 7}, 0.7, 0.7, 300 + s));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(gen::random_sparse(30 + 2 * static_cast<int>(s), 2.5, 0.5,
                                     0.8, 400 + s));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(gen::circuit(45 + 2 * static_cast<int>(s), 2, 2.5, 500 + s));
  }
  return out;
}

/// A production shape by name (test::production_matrices()).
CscMatrix production_shape(const std::string& name) {
  for (auto& [n, a] : test::production_matrices()) {
    if (n == name) return a;
  }
  throw std::invalid_argument("no production shape " + name);
}

void expect_same_bits(double a, double b, const std::string& what) {
  EXPECT_EQ(0, std::memcmp(&a, &b, sizeof a)) << what << ": " << a << " vs " << b;
}

/// Bitwise equality of two usable factorizations.
void expect_bitwise(const Factorization& fresh, const Factorization& got,
                    const std::string& what) {
  ASSERT_EQ(fresh.status(), got.status()) << what;
  EXPECT_EQ(fresh.failed_column(), got.failed_column()) << what;
  EXPECT_EQ(fresh.zero_pivots(), got.zero_pivots()) << what;
  EXPECT_EQ(fresh.perturbed_columns(), got.perturbed_columns()) << what;
  expect_same_bits(fresh.growth_factor(), got.growth_factor(),
                   what + " growth_factor");
  expect_same_bits(fresh.min_pivot_ratio(), got.min_pivot_ratio(),
                   what + " min_pivot_ratio");
  const int nb = fresh.analysis().blocks.num_blocks();
  ASSERT_EQ(nb, got.analysis().blocks.num_blocks()) << what;
  for (int j = 0; j < nb; ++j) {
    ASSERT_EQ(fresh.panel_ipiv(j), got.panel_ipiv(j)) << what << " column " << j;
    blas::ConstMatrixView r = fresh.blocks().column(j);
    blas::ConstMatrixView p = got.blocks().column(j);
    ASSERT_EQ(r.rows, p.rows) << what << " column " << j;
    ASSERT_EQ(r.cols, p.cols) << what << " column " << j;
    for (int c = 0; c < r.cols; ++c) {
      ASSERT_EQ(0, std::memcmp(r.data + std::size_t(c) * r.ld,
                               p.data + std::size_t(c) * p.ld,
                               8 * std::size_t(r.rows)))
          << what << " column " << j << " panel col " << c;
    }
  }
}

/// A round compared against a fresh run: bitwise when usable; on a
/// breakdown the status (and, for a deterministic schedule, the column)
/// must agree.
void expect_matches_fresh(const Factorization& fresh, const Factorization& got,
                          ExecutionMode mode, const std::string& what) {
  if (factor_usable(fresh.status())) {
    expect_bitwise(fresh, got, what);
    return;
  }
  EXPECT_EQ(fresh.status(), got.status()) << what;
  if (mode != ExecutionMode::kThreaded) {
    EXPECT_EQ(fresh.failed_column(), got.failed_column()) << what;
  }
}

/// Factorizes `a`, then `rounds` perturbed value sets of its pattern
/// through one SparseLU, checking every refactorization against a fresh
/// Factorization on the same analysis and that it ran in place.
void check_refactor_loop(const CscMatrix& a, const Arm& arm, int rounds,
                         std::uint64_t seed, const std::string& what) {
  SparseLU lu(arm.options());
  lu.numeric_options() = arm.numeric();
  lu.factorize(a);
  const Factorization* addr = &lu.factorization();
  const std::size_t bytes = addr->blocks().storage_bytes();
  for (int r = 1; r <= rounds; ++r) {
    const std::string tag = what + " " + arm.name() + " round " + std::to_string(r);
    const CscMatrix ar = gen::perturb_values(a, 0.2, seed + r);
    lu.factorize(ar);
    ASSERT_EQ(&lu.factorization(), addr) << tag;
    EXPECT_EQ(lu.factorization().blocks().storage_bytes(), bytes) << tag;
    EXPECT_EQ(lu.analyze_count(), 1) << tag;
    Factorization fresh(lu.analysis(), ar, arm.numeric());
    expect_matches_fresh(fresh, lu.factorization(), arm.mode, tag);
    // Bitwise agreement with a fresh run on the same analysis cannot see a
    // slot that both runs share; the residual against `ar` itself can.
    // Checked under the 1-D layout's partial pivoting only: the 2-D
    // layout's block-restricted pivoting leaves forest12 at a residual of
    // ~0.1 even after refinement, in fresh runs too.
    if (arm.layout == Layout::k1D && factor_usable(lu.factor_status())) {
      const std::vector<double> b = test::random_vector(a.rows(), seed + r);
      EXPECT_LT(relative_residual(ar, lu.solve_refined(b).x, b), 1e-10) << tag;
    }
  }
}

void run_production_arm(const std::string& shape, ExecutionMode mode,
                        int threads,
                        std::vector<Layout> layouts = {Layout::k1D,
                                                       Layout::k2D}) {
  const CscMatrix a = production_shape(shape);
  for (const Arm& arm : arms(mode, threads, layouts)) {
    check_refactor_loop(a, arm, 4, 900, shape);
  }
}

void run_sweep_arm(ExecutionMode mode, int threads) {
  const std::vector<CscMatrix> pool = sweep_matrices();
  for (std::size_t m = 0; m < pool.size(); ++m) {
    for (const Arm& arm : arms(mode, threads)) {
      check_refactor_loop(pool[m], arm, 4, 50 * m,
                          "sweep matrix " + std::to_string(m));
    }
  }
}

// forest12: many independent analysis units; multiphys-2k: dense
// intra-point blocks.
TEST(RefactorInPlace, SequentialMatchesFreshOnForest12) {
  run_production_arm("forest12", ExecutionMode::kSequential, 1);
}

TEST(RefactorInPlace, ThreadedMatchesFreshOnForest12) {
  run_production_arm("forest12", ExecutionMode::kThreaded, 4);
}

TEST(RefactorInPlace, SequentialMatchesFreshOnMultiphys2k) {
  run_production_arm("multiphys-2k", ExecutionMode::kSequential, 1);
}

// One test per layout: each takes minutes under TSan, and ctest runs
// them side by side.
TEST(RefactorInPlace, ThreadedMatchesFreshOnMultiphys2k1D) {
  run_production_arm("multiphys-2k", ExecutionMode::kThreaded, 4,
                     {Layout::k1D});
}

TEST(RefactorInPlace, ThreadedMatchesFreshOnMultiphys2k2D) {
  run_production_arm("multiphys-2k", ExecutionMode::kThreaded, 4,
                     {Layout::k2D});
}

TEST(RefactorInPlace, SequentialMatchesFreshOnSweep) {
  run_sweep_arm(ExecutionMode::kSequential, 1);
}

TEST(RefactorInPlace, ThreadedMatchesFreshOnSweep) {
  run_sweep_arm(ExecutionMode::kThreaded, 4);
}

/// `a` with every stored value of original column `col` set to zero: the
/// pattern is unchanged and the matrix is exactly singular with one
/// breakdown column (a zero column stays zero under elimination).
CscMatrix zero_column(const CscMatrix& a, int col) {
  std::vector<double> v = a.values();
  for (int k = a.col_begin(col); k < a.col_end(col); ++k) v[k] = 0.0;
  return CscMatrix(a.rows(), a.cols(), a.col_ptr(), a.row_ind(), std::move(v));
}

/// `a` with its diagonal entry of original column `col` set to +Inf.
CscMatrix infinite_entry(const CscMatrix& a, int col) {
  std::vector<double> v = a.values();
  for (int k = a.col_begin(col); k < a.col_end(col); ++k) {
    if (a.row_index(k) == col) v[k] = std::numeric_limits<double>::infinity();
  }
  return CscMatrix(a.rows(), a.cols(), a.col_ptr(), a.row_ind(), std::move(v));
}

/// Healthy round, breakdown round, healthy round, in place.  The breakdown
/// round must report the fresh run's status and column; its partial factors
/// are not compared (which tasks ran before the cancellation is schedule
/// timing).  The recovery round must be bitwise fresh.
void check_breakdown_then_recovery(ExecutionMode mode, int threads) {
  const CscMatrix a = production_shape("forest12");
  const int col = a.cols() / 3;
  struct Broken {
    const char* name;
    CscMatrix values;
    FactorStatus expected;
  };
  const Broken broken[] = {
      {"singular", zero_column(a, col), FactorStatus::kSingular},
      {"overflow", infinite_entry(a, col), FactorStatus::kOverflow},
  };
  for (const Arm& arm : arms(mode, threads)) {
    for (const Broken& b : broken) {
      const std::string what = arm.name() + " " + b.name;
      SparseLU lu(arm.options());
      lu.numeric_options() = arm.numeric();
      lu.factorize(a);
      ASSERT_TRUE(factor_usable(lu.factor_status())) << what;
      const Factorization* addr = &lu.factorization();

      lu.factorize(b.values);
      ASSERT_EQ(&lu.factorization(), addr) << what;
      Factorization fresh_broken(lu.analysis(), b.values, arm.numeric());
      EXPECT_EQ(fresh_broken.status(), b.expected) << what;
      EXPECT_EQ(lu.factor_status(), fresh_broken.status()) << what;
      EXPECT_EQ(lu.factorization().failed_column(),
                fresh_broken.failed_column())
          << what;
      EXPECT_THROW(lu.solve(std::vector<double>(a.rows(), 1.0)),
                   std::runtime_error)
          << what;

      const CscMatrix healed = gen::perturb_values(a, 0.2, 77);
      lu.factorize(healed);
      ASSERT_EQ(&lu.factorization(), addr) << what;
      Factorization fresh(lu.analysis(), healed, arm.numeric());
      ASSERT_TRUE(factor_usable(fresh.status())) << what;
      expect_bitwise(fresh, lu.factorization(), what + " recovery");
      EXPECT_TRUE(lu.factorization().races().empty()) << what;
    }
  }
}

TEST(RefactorInPlace, SequentialBreakdownThenRecovery) {
  check_breakdown_then_recovery(ExecutionMode::kSequential, 1);
}

TEST(RefactorInPlace, ThreadedBreakdownThenRecovery) {
  check_breakdown_then_recovery(ExecutionMode::kThreaded, 4);
}

/// `a` without its off-diagonal entries in every third column.
CscMatrix strict_sub_pattern(const CscMatrix& a) {
  std::vector<int> ptr(1, 0), ind;
  std::vector<double> val;
  for (int j = 0; j < a.cols(); ++j) {
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      if (j % 3 == 0 && a.row_index(k) != j) continue;
      ind.push_back(a.row_index(k));
      val.push_back(a.value(k));
    }
    ptr.push_back(static_cast<int>(ind.size()));
  }
  return CscMatrix(a.rows(), a.cols(), std::move(ptr), std::move(ind),
                   std::move(val));
}

TEST(RefactorInPlace, StrictSubPatternGetsItsOwnSlots) {
  const CscMatrix a = production_shape("forest12");
  const CscMatrix sub = strict_sub_pattern(a);
  ASSERT_LT(sub.nnz(), a.nnz());
  for (const Arm& arm : arms(ExecutionMode::kSequential, 1)) {
    const std::string what = arm.name();
    const Analysis an = analyze(a, arm.options());
    Factorization f(an, a, arm.numeric());
    const BlockMatrix* storage = &f.blocks();
    f.refactor(sub, arm.numeric());
    EXPECT_EQ(&f.blocks(), storage) << what;
    Factorization fresh(an, sub, arm.numeric());
    expect_matches_fresh(fresh, f, arm.mode, what);
    // Back on the analyzed pattern: the analysis' slots again.
    const CscMatrix again = gen::perturb_values(a, 0.2, 5);
    f.refactor(again, arm.numeric());
    Factorization fresh_again(an, again, arm.numeric());
    expect_matches_fresh(fresh_again, f, arm.mode, what + " back");
  }
}

TEST(RefactorInPlace, OutOfPatternEntryThrowsAndLeavesFactorsUnusable) {
  const CscMatrix a = test::small_matrices()[2];  // banded, bandwidth 8
  const Analysis an = analyze(a);
  Factorization f(an, a);
  ASSERT_TRUE(factor_usable(f.status()));
  // Every entry present: far outside any banded block pattern.
  CooMatrix dense(a.rows(), a.cols());
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i < a.rows(); ++i) dense.add(i, j, i == j ? 4.0 : 0.01);
  }
  EXPECT_THROW(f.refactor(dense.to_csc()), std::invalid_argument);
  EXPECT_FALSE(factor_usable(f.status()));
  EXPECT_THROW(f.solve(std::vector<double>(a.rows(), 1.0)), std::runtime_error);
  // A wrong size throws too, and a valid matrix afterwards recovers.
  EXPECT_THROW(f.refactor(test::small_matrices()[0]), std::invalid_argument);
  const CscMatrix healed = gen::perturb_values(a, 0.2, 3);
  f.refactor(healed);
  Factorization fresh(an, healed);
  expect_bitwise(fresh, f, "after throw");
}

TEST(RefactorInPlace, OptionDependentResultsDoNotCarryOver) {
  // Results only some options produce must not survive into a run without
  // them: the race audit and the perturbation magnitude.
  const CscMatrix a = test::small_matrices()[1];
  const Analysis an = analyze(a);
  NumericOptions audited;
  audited.check_races = true;
  audited.perturb_pivots = true;
  Factorization f(an, a, audited);
  ASSERT_TRUE(f.race_checked());
  ASSERT_GT(f.perturbation_magnitude(), 0.0);
  const CscMatrix a2 = gen::perturb_values(a, 0.2, 4);
  f.refactor(a2);
  EXPECT_FALSE(f.race_checked());
  EXPECT_EQ(f.perturbation_magnitude(), 0.0);
  Factorization fresh(an, a2);
  expect_bitwise(fresh, f, "plain after audited");
}

TEST(RefactorInPlace, NewPatternReanalyzesWithOneSlab) {
  const CscMatrix a = test::small_matrices()[0];
  const CscMatrix b = test::small_matrices()[1];
  SparseLU lu;
  lu.factorize(a);
  lu.factorize(b);
  EXPECT_EQ(lu.analyze_count(), 2);
  EXPECT_EQ(lu.analysis().input_pattern, b.pattern());
  Factorization fresh(lu.analysis(), b);
  expect_bitwise(fresh, lu.factorization(), "reanalyzed");
}

}  // namespace
}  // namespace plu
