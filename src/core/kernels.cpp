#include "core/kernels.h"

#include <cmath>
#include <limits>

#include "blas/factor.h"
#include "blas/level3.h"
#include "blas/tunables.h"

namespace plu::kernels {

FactorResult factor_block(blas::MatrixView a, std::vector<int>& ipiv,
                          double threshold, double perturb_magnitude) {
  FactorResult r;
  blas::PivotPerturbation perturb;
  perturb.magnitude = perturb_magnitude;
  blas::PivotPerturbation* p = perturb_magnitude > 0.0 ? &perturb : nullptr;
  r.info = threshold < 1.0
               ? blas::getf2_threshold(a, ipiv, threshold, nullptr, p)
               : blas::getrf(a, ipiv, blas::tunables::kGetrfNb, p);
  r.perturbed = std::move(perturb.columns);
  blas::all_finite(a, &r.first_nonfinite);
  return r;
}

double min_diag_abs(blas::ConstMatrixView a) {
  double m = std::numeric_limits<double>::infinity();
  for (int c = 0; c < a.cols && c < a.rows; ++c) {
    double p = std::abs(a(c, c));
    if (p > 0.0) m = std::min(m, p);
  }
  return m;
}

void apply_panel_pivots(BlockMatrix& bm, const std::vector<int>& ipiv, int k,
                        int j) {
  for (std::size_t c = 0; c < ipiv.size(); ++c) {
    const int p = static_cast<int>(c);
    if (ipiv[c] != p) {
      bm.swap_rows(j, bm.panel_row_in_column(k, j, p),
                   bm.panel_row_in_column(k, j, ipiv[c]));
    }
  }
}

void apply_local_pivots(blas::MatrixView b, const std::vector<int>& ipiv) {
  blas::laswp(b, ipiv, 0, static_cast<int>(ipiv.size()));
}

void solve_with_l(blas::ConstMatrixView lkk, blas::MatrixView ukj) {
  blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
             blas::Diag::Unit, 1.0, lkk, ukj);
}

void solve_with_u(blas::ConstMatrixView ukk, blas::MatrixView lik) {
  blas::trsm(blas::Side::Right, blas::UpLo::Upper, blas::Trans::No,
             blas::Diag::NonUnit, 1.0, ukk, lik);
}

void schur_update(blas::ConstMatrixView lik, blas::ConstMatrixView ukj,
                  blas::MatrixView bij, blas::GemmEngine engine) {
  blas::gemm(blas::Trans::No, blas::Trans::No, -1.0, lik, ukj, 1.0, bij,
             engine);
}

void schur_update_rows(blas::ConstMatrixView l, blas::ConstMatrixView ukj,
                       blas::MatrixView c, const blas::RowSpan* runs,
                       int nruns, blas::GemmEngine engine) {
  blas::gemm_rows(-1.0, l, ukj, c, runs, nruns, engine);
}

}  // namespace plu::kernels
