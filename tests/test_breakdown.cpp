// Numeric-breakdown paths: singular and overflowing inputs must produce the
// same FactorStatus and failing column in EVERY execution mode and both
// layouts, never leave NaN/Inf behind silently, and never abort the
// process; static pivot perturbation (NumericOptions::perturb_pivots) must
// rescue the singular case with refined_solve recovering the accuracy.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "blas/factor.h"
#include "core/refine.h"
#include "core/report.h"
#include "core/sparse_lu.h"
#include "test_helpers.h"

namespace plu {
namespace {

/// Every execution discipline a factorization can run under.
struct ModeCase {
  std::string name;
  NumericOptions opt;
};

std::vector<ModeCase> all_modes() {
  std::vector<ModeCase> modes;
  {
    ModeCase m{"sequential", {}};
    m.opt.mode = ExecutionMode::kSequential;
    modes.push_back(m);
  }
  {
    ModeCase m{"graph-sequential", {}};
    m.opt.mode = ExecutionMode::kGraphSequential;
    modes.push_back(m);
  }
  {
    ModeCase m{"threaded-worksteal", {}};
    m.opt.mode = ExecutionMode::kThreaded;
    m.opt.threads = 4;
    modes.push_back(m);
  }
  {
    ModeCase m{"threaded-fuzzed", {}};
    m.opt.mode = ExecutionMode::kThreaded;
    m.opt.fuzz_schedule = true;
    m.opt.fuzz_seed = 7;
    m.opt.threads = 4;
    modes.push_back(m);
  }
  return modes;
}

Analysis analyze_layout(const CscMatrix& a, Layout layout) {
  Options opt;
  opt.layout = layout;
  return analyze(a, opt);
}

/// Natural-order analysis: the default fill-reducing ordering is applied to
/// columns only, which rotates off-diagonal nonzeros onto the diagonal and
/// would defuse the deliberately-broken fixtures below.  Natural order keeps
/// the constructed values where the test put them (the transversal is the
/// identity on a structurally full diagonal, and the postorder permutation
/// is symmetric, so diagonal values stay diagonal).
Analysis analyze_natural(const CscMatrix& a, Layout layout = Layout::k1D) {
  Options opt;
  opt.layout = layout;
  opt.ordering = ordering::Method::kNatural;
  return analyze(a, opt);
}

/// Numerically singular (rows 0 and 1 proportional), structurally fine,
/// with exactly ONE breakdown column -- so cancellation cannot change which
/// failure is observed and the reported column is schedule-independent.
CscMatrix singular_matrix() {
  CooMatrix coo(4, 4);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, 2.0);
  coo.add(1, 0, 2.0);
  coo.add(1, 1, 4.0);
  coo.add(2, 2, 1.0);
  coo.add(3, 3, 1.0);
  return coo.to_csc();
}

/// The Schur update 1e308 - (1)(-1e308) overflows to +Inf in column 1.
CscMatrix overflow_matrix() {
  CooMatrix coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 1, -1e308);
  coo.add(1, 0, 1.0);
  coo.add(1, 1, 1e308);
  return coo.to_csc();
}

/// Well-conditioned but with an identically-zero diagonal: pairs (2k, 2k+1)
/// couple only off-diagonally.  Under pivot_threshold = 0.0 the diagonal is
/// always preferred, so the factorization hits the zero pivots head-on --
/// the perturbation test bed (the matrix itself is benign, so refinement
/// recovers full accuracy once perturbation lets the factorization finish).
CscMatrix zero_diagonal_matrix() {
  CooMatrix coo(6, 6);
  for (int k = 0; k < 3; ++k) {
    const int i = 2 * k, j = 2 * k + 1;
    coo.add(i, i, 0.0);
    coo.add(j, j, 0.0);
    coo.add(i, j, 2.0 + k);
    coo.add(j, i, 1.5 + k);
  }
  return coo.to_csc();
}

bool blocks_all_finite(const Factorization& f) {
  const int nb = f.analysis().blocks.num_blocks();
  for (int j = 0; j < nb; ++j) {
    if (!blas::all_finite(f.blocks().column(j))) return false;
  }
  return true;
}

TEST(Breakdown, SingularSameStatusAndColumnEveryModeBothLayouts) {
  CscMatrix a = singular_matrix();
  for (Layout layout : {Layout::k1D, Layout::k2D}) {
    Analysis an = analyze_layout(a, layout);
    // Sequential run fixes the expected breakdown column for this layout.
    Factorization baseline(an, a, all_modes()[0].opt);
    ASSERT_EQ(baseline.status(), FactorStatus::kSingular) << to_string(layout);
    ASSERT_GE(baseline.failed_column(), 0) << to_string(layout);
    for (const ModeCase& m : all_modes()) {
      Factorization f(an, a, m.opt);
      EXPECT_EQ(f.status(), FactorStatus::kSingular)
          << to_string(layout) << " " << m.name;
      EXPECT_EQ(f.failed_column(), baseline.failed_column())
          << to_string(layout) << " " << m.name;
      EXPECT_TRUE(f.singular()) << to_string(layout) << " " << m.name;
      // Cancellation stopped the run BEFORE any division by the zero pivot:
      // the abandoned factors must carry no NaN/Inf.
      EXPECT_TRUE(blocks_all_finite(f)) << to_string(layout) << " " << m.name;
      std::vector<double> b(a.rows(), 1.0);
      EXPECT_THROW(f.solve(b), std::runtime_error)
          << to_string(layout) << " " << m.name;
      EXPECT_THROW(f.solve_transpose(b), std::runtime_error)
          << to_string(layout) << " " << m.name;
    }
  }
}

TEST(Breakdown, OverflowDetectedEveryModeBothLayouts) {
  CscMatrix a = overflow_matrix();
  for (Layout layout : {Layout::k1D, Layout::k2D}) {
    Analysis an = analyze_natural(a, layout);
    Factorization baseline(an, a, all_modes()[0].opt);
    ASSERT_EQ(baseline.status(), FactorStatus::kOverflow) << to_string(layout);
    ASSERT_GE(baseline.failed_column(), 0) << to_string(layout);
    for (const ModeCase& m : all_modes()) {
      Factorization f(an, a, m.opt);
      EXPECT_EQ(f.status(), FactorStatus::kOverflow)
          << to_string(layout) << " " << m.name;
      EXPECT_EQ(f.failed_column(), baseline.failed_column())
          << to_string(layout) << " " << m.name;
      EXPECT_FALSE(factor_usable(f.status()));
      std::vector<double> b(a.rows(), 1.0);
      EXPECT_THROW(f.solve(b), std::runtime_error)
          << to_string(layout) << " " << m.name;
    }
  }
}

TEST(Breakdown, PerturbationRescuesZeroPivotsAndRefinementRecovers) {
  CscMatrix a = zero_diagonal_matrix();
  std::vector<double> b = test::random_vector(a.rows(), 19);
  for (Layout layout : {Layout::k1D, Layout::k2D}) {
    Analysis an = analyze_natural(a, layout);
    // Diagonal preference drives the factorization into the zero diagonal.
    NumericOptions nopt;
    nopt.pivot_threshold = 0.0;
    Factorization broken(an, a, nopt);
    ASSERT_EQ(broken.status(), FactorStatus::kSingular) << to_string(layout);
    // Same options + perturbation: completes with a perturbation log.
    nopt.perturb_pivots = true;
    for (const ModeCase& m : all_modes()) {
      NumericOptions opt = m.opt;
      opt.pivot_threshold = 0.0;
      opt.perturb_pivots = true;
      Factorization f(an, a, opt);
      ASSERT_EQ(f.status(), FactorStatus::kPerturbed)
          << to_string(layout) << " " << m.name;
      EXPECT_FALSE(f.singular()) << to_string(layout) << " " << m.name;
      EXPECT_EQ(f.failed_column(), -1);
      EXPECT_FALSE(f.perturbed_columns().empty());
      EXPECT_GT(f.perturbation_magnitude(), 0.0);
      EXPECT_TRUE(blocks_all_finite(f)) << to_string(layout) << " " << m.name;
      // The raw solve is polluted by the perturbation; refinement against
      // the true matrix recovers componentwise accuracy.
      RefineResult r = refined_solve(f, a, b);
      EXPECT_TRUE(r.converged) << to_string(layout) << " " << m.name;
      EXPECT_LT(r.backward_error, 1e-12) << to_string(layout) << " " << m.name;
      EXPECT_LT(relative_residual(a, r.x, b), 1e-12)
          << to_string(layout) << " " << m.name;
    }
  }
}

TEST(Breakdown, GrowthFactorReportedForHealthyRuns) {
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    Factorization f(an, a);
    ASSERT_EQ(f.status(), FactorStatus::kOk) << describe(a);
    EXPECT_GT(f.growth_factor(), 0.0) << describe(a);
    EXPECT_TRUE(std::isfinite(f.growth_factor())) << describe(a);
    FactorizationReport rep = report(f);
    EXPECT_EQ(rep.status, FactorStatus::kOk);
    EXPECT_EQ(rep.growth_factor, f.growth_factor());
    // Rendering mentions the status for the downstream user.
    EXPECT_NE(to_string(rep).find("status ok"), std::string::npos);
  }
}

TEST(Breakdown, ReportRendersPerturbationLog) {
  CscMatrix a = zero_diagonal_matrix();
  Analysis an = analyze_natural(a);
  NumericOptions nopt;
  nopt.pivot_threshold = 0.0;
  nopt.perturb_pivots = true;
  Factorization f(an, a, nopt);
  ASSERT_EQ(f.status(), FactorStatus::kPerturbed);
  FactorizationReport rep = report(f);
  EXPECT_EQ(rep.perturbed_columns, f.perturbed_columns());
  std::string s = to_string(rep);
  EXPECT_NE(s.find("status perturbed"), std::string::npos) << s;
  EXPECT_NE(s.find("refined_solve"), std::string::npos) << s;
}

TEST(Breakdown, SparseLuFacadeSurfacesStatusAndSolveThrows) {
  SparseLU lu;
  EXPECT_EQ(lu.factor_status(), FactorStatus::kOk);  // nothing factored yet
  CscMatrix a = singular_matrix();
  lu.factorize(a);
  EXPECT_EQ(lu.factor_status(), FactorStatus::kSingular);
  EXPECT_FALSE(factor_usable(lu.factor_status()));
  std::vector<double> b(a.rows(), 1.0);
  EXPECT_THROW(lu.solve(b), std::runtime_error);
  // A healthy refactorize clears the status.
  CscMatrix good = test::small_matrices()[0];
  SparseLU lu2;
  lu2.factorize(good);
  EXPECT_EQ(lu2.factor_status(), FactorStatus::kOk);
  EXPECT_NO_THROW(lu2.solve(std::vector<double>(good.rows(), 1.0)));
}

TEST(Breakdown, SchurModeGuardedOnBreakdown) {
  // Partial (Schur) factorization over a singular leading part must also
  // refuse to hand out the Schur complement.
  CscMatrix a = singular_matrix();
  Analysis an = analyze(a);
  NumericOptions nopt;
  nopt.stop_after_block = an.blocks.num_blocks() > 1 ? 1 : 0;
  Factorization f(an, a, nopt);
  if (f.status() == FactorStatus::kSingular) {
    EXPECT_THROW(f.schur_complement(), std::runtime_error);
  } else {
    // The singular column landed in the unfactored trailing part; the
    // partial run is then legitimately usable.
    EXPECT_NO_THROW(f.schur_complement());
  }
}

}  // namespace
}  // namespace plu
