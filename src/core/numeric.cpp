#include "core/numeric.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "blas/factor.h"
#include "blas/level2.h"
#include "blas/level3.h"
#include "core/driver.h"
#include "taskgraph/analysis.h"

namespace plu {

const char* Factorization::driver_name() const {
  return NumericDriver::driver_for(layout_).name();
}

const taskgraph::TaskGraph& Factorization::task_graph() const {
  return layout_ == Layout::k2D ? analysis_->block_graph : analysis_->graph;
}

namespace {

/// Largest |entry| of a matrix and whether every entry is finite, in one
/// pass.  Four independent max lanes keep the compare chain short; max is
/// order-independent and never adopts a NaN (std::max(m, NaN) == m), so the
/// result is bitwise blas::max_abs's.
struct Scan {
  double max_abs = 0.0;
  bool finite = true;
};

Scan scan(blas::ConstMatrixView a) {
  double m[4] = {0.0, 0.0, 0.0, 0.0};
  bool nan = false;
  for (int j = 0; j < a.cols; ++j) {
    const double* c = a.col(j);
    int i = 0;
    for (; i + 4 <= a.rows; i += 4) {
      for (int l = 0; l < 4; ++l) {
        m[l] = std::max(m[l], std::abs(c[i + l]));
        nan |= std::isnan(c[i + l]);
      }
    }
    for (; i < a.rows; ++i) {
      m[0] = std::max(m[0], std::abs(c[i]));
      nan |= std::isnan(c[i]);
    }
  }
  const double mx = std::max(std::max(m[0], m[1]), std::max(m[2], m[3]));
  return {mx, !nan && std::isfinite(mx)};
}

}  // namespace

Factorization::Factorization(const Analysis& analysis, const CscMatrix& a,
                             const NumericOptions& opt)
    : analysis_(&analysis),
      blocks_(analysis.blocks, StorageMode::kArena,
              opt.mode == ExecutionMode::kThreaded ? opt.threads : 1),
      layout_(analysis.options.layout) {
  run(a, opt);
}

void Factorization::refactor(const CscMatrix& a, const NumericOptions& opt) {
  blocks_.set_zero();
  run(a, opt);
}

void Factorization::run(const CscMatrix& a, const NumericOptions& opt) {
  const Analysis& analysis = *analysis_;
  // Every per-run result starts afresh; until the run completes the
  // factors are unusable.
  status_ = FactorStatus::kCancelled;
  failed_column_ = -1;
  zero_pivots_ = 0;
  lazy_skipped_ = 0;
  perturb_magnitude_ = 0.0;
  races_.clear();
  race_checked_ = false;
  if (a.rows() != analysis.n || a.cols() != analysis.n) {
    throw std::invalid_argument("Factorization: matrix/analysis size mismatch");
  }
  const int nb = analysis.blocks.num_blocks();
  const taskgraph::TaskGraph& graph = task_graph();
  if (layout_ == Layout::k2D && graph.size() == 0 && nb > 0) {
    throw std::logic_error(
        "Factorization: 2-D layout needs an analysis run with "
        "Options::layout = Layout::k2D (no block graph present)");
  }
  // Load through the analysis' slots; any other pattern gets its own.  The
  // scatter also returns the matrix magnitude reference for
  // min_pivot_ratio (max |entry| of the scaled+permuted matrix).
  std::vector<std::uint64_t> own_slots;
  const bool analyzed_pattern = a.col_ptr() == analysis.input_pattern.ptr &&
                                a.row_ind() == analysis.input_pattern.idx;
  if (!analyzed_pattern) {
    own_slots = scatter_slots(analysis.blocks, a.col_ptr(), a.row_ind(),
                              analysis.row_perm, analysis.col_perm);
  }
  double matrix_scale =
      blocks_.scatter(a, analyzed_pattern ? analysis.input_slots : own_slots,
                      analysis.col_perm, analysis.row_scale,
                      analysis.col_scale);
  if (matrix_scale == 0.0) matrix_scale = 1.0;
  // Pivot sequences start empty (an unfactored block has none) but with
  // their final capacity, so no factor task allocates.
  ipiv_.resize(nb);
  for (int k = 0; k < nb; ++k) {
    ipiv_[k].clear();
    ipiv_[k].reserve(analysis.blocks.part.width(k));
  }

  std::unique_ptr<rt::RaceChecker> checker;
  if (opt.check_races) {
    checker = std::make_unique<rt::RaceChecker>(graph.size());
  }

  factored_blocks_ = (opt.stop_after_block >= 0 && opt.stop_after_block < nb)
                         ? opt.stop_after_block
                         : nb;
  if (opt.perturb_pivots) {
    perturb_magnitude_ =
        std::sqrt(std::numeric_limits<double>::epsilon()) * matrix_scale;
  }
  NumericRun run{analysis, blocks_, ipiv_, graph, checker.get(),
                 factored_blocks_};
  run.perturb_magnitude = perturb_magnitude_;
  NumericDriver::driver_for(layout_).factorize(run, opt);
  zero_pivots_ = run.zero_pivots;
  lazy_skipped_ = run.lazy_skipped;
  min_pivot_ratio_ =
      std::isfinite(run.min_pivot) ? run.min_pivot / matrix_scale : 0.0;
  failed_column_ = run.failed_column;
  perturbed_columns_ = std::move(run.perturbed_columns);
  blocking_stats_ = run.blocking;
  // One scan of the factors: pivot growth, plus overflow the factor tasks
  // could not see (in the 1-D layout the U blocks above a panel are only
  // written by Update tasks, which perform no scan of their own).  Only a
  // flagged column is searched again for the first bad entry.
  double factor_max = 0.0;
  for (int j = 0; j < nb; ++j) {
    blas::ConstMatrixView col = blocks_.column(j);
    const Scan s = scan(col);
    factor_max = std::max(factor_max, s.max_abs);
    int bad = -1;
    if (!s.finite && factor_usable(run.status) && !blas::all_finite(col, &bad)) {
      run.status = FactorStatus::kOverflow;
      failed_column_ = analysis.blocks.part.first(j) + bad;
    }
  }
  growth_factor_ = factor_max / matrix_scale;
  // Cross-check the recorded footprints against the dependence graph the
  // run executed.
  if (checker) {
    races_ = checker->check(graph);
    race_checked_ = true;
  }
  status_ = run.status;
}

void Factorization::require_usable(const char* what) const {
  if (factor_usable(status_)) return;
  throw std::runtime_error(
      std::string(what) + ": factorization failed (" + to_string(status_) +
      " at column " + std::to_string(failed_column_) + ")");
}

blas::DenseMatrix Factorization::schur_complement() const {
  require_usable("schur_complement");
  if (!partial()) {
    throw std::logic_error(
        "schur_complement: factorization is complete; use "
        "NumericOptions::stop_after_block");
  }
  const Analysis& an = *analysis_;
  const symbolic::SupernodePartition& part = an.blocks.part;
  const int nb = an.blocks.num_blocks();
  const int split_col = part.first(factored_blocks_);
  const int m = an.n - split_col;
  blas::DenseMatrix s(m, m);
  for (int j = factored_blocks_; j < nb; ++j) {
    for (int i : blocks_.column_blocks(j)) {
      if (i < factored_blocks_) continue;
      blas::ConstMatrixView b = blocks_.block(i, j);
      for (int c = 0; c < b.cols; ++c) {
        for (int r = 0; r < b.rows; ++r) {
          s(part.first(i) + r - split_col, part.first(j) + c - split_col) =
              b(r, c);
        }
      }
    }
  }
  return s;
}

long Factorization::pivot_interchanges() const {
  long count = 0;
  for (const std::vector<int>& piv : ipiv_) {
    for (std::size_t c = 0; c < piv.size(); ++c) {
      if (piv[c] != static_cast<int>(c)) ++count;
    }
  }
  return count;
}

std::vector<double> Factorization::solve(const std::vector<double>& b) const {
  require_usable("solve");
  if (partial()) {
    throw std::logic_error("solve: factorization is partial (Schur mode)");
  }

  const Analysis& an = *analysis_;
  const int n = an.n;
  if (static_cast<int>(b.size()) != n) {
    throw std::invalid_argument("solve: rhs size mismatch");
  }
  const symbolic::SupernodePartition& part = an.blocks.part;
  const int nb = an.blocks.num_blocks();

  // y = Pr * b (rows to the analysis ordering), with the MC64 row scaling
  // when the analysis carries one.
  std::vector<double> y(n);
  for (int i = 0; i < n; ++i) {
    int old = an.row_perm.old_of(i);
    y[i] = an.scaled() ? an.row_scale[old] * b[old] : b[old];
  }

  // Forward pass: replay (swap_k, eliminate_k) in panel order, exactly the
  // operation sequence the factorization applied to the matrix columns.
  std::vector<double> seg;
  for (int k = 0; k < nb; ++k) {
    const int wk = part.width(k);
    // Global rows of panel k, in packed order.
    seg.clear();
    std::vector<int> grows;  // global rows of panel k, packed order
    for (int r = part.first(k); r < part.end(k); ++r) grows.push_back(r);
    for (int t : an.blocks.l_blocks(k)) {
      for (int r = part.first(t); r < part.end(t); ++r) grows.push_back(r);
    }
    seg.resize(grows.size());
    for (std::size_t p = 0; p < grows.size(); ++p) seg[p] = y[grows[p]];
    // Pivot swaps.
    const std::vector<int>& piv = ipiv_[k];
    for (std::size_t c = 0; c < piv.size(); ++c) {
      if (piv[c] != static_cast<int>(c)) std::swap(seg[c], seg[piv[c]]);
    }
    // Unit-lower solve on the diagonal block, then L updates below.
    blas::ConstMatrixView panel = blocks_.panel(k);
    blas::ConstMatrixView lkk = panel.block(0, 0, wk, wk);
    blas::trsv(blas::UpLo::Lower, blas::Trans::No, blas::Diag::Unit, lkk,
               seg.data(), 1);
    const int below = static_cast<int>(grows.size()) - wk;
    if (below > 0) {
      blas::ConstMatrixView lbelow = panel.block(wk, 0, below, wk);
      blas::gemv(blas::Trans::No, -1.0, lbelow, seg.data(), 1, 1.0,
                 seg.data() + wk, 1);
    }
    for (std::size_t p = 0; p < grows.size(); ++p) y[grows[p]] = seg[p];
  }

  // Backward pass, column-oriented: z_k = U_kk^{-1} y_k, then subtract
  // U_ik z_k from every U block above the diagonal of block column k.
  for (int k = nb - 1; k >= 0; --k) {
    const int wk = part.width(k);
    double* yk = y.data() + part.first(k);
    blas::ConstMatrixView panel = blocks_.panel(k);
    blas::ConstMatrixView ukk = panel.block(0, 0, wk, wk);
    blas::trsv(blas::UpLo::Upper, blas::Trans::No, blas::Diag::NonUnit, ukk, yk, 1);
    for (int i : blocks_.column_blocks(k)) {
      if (i >= k) break;
      blas::ConstMatrixView uik = blocks_.block(i, k);
      blas::gemv(blas::Trans::No, -1.0, uik, yk, 1, 1.0,
                 y.data() + part.first(i), 1);
    }
  }

  // x[col_perm.old_of(j)] = y[j], undoing the MC64 column scaling.
  std::vector<double> x(n);
  for (int j = 0; j < n; ++j) {
    int old = an.col_perm.old_of(j);
    x[old] = an.scaled() ? an.col_scale[old] * y[j] : y[j];
  }
  return x;
}

void Factorization::solve_matrix(blas::ConstMatrixView b, blas::MatrixView x) const {
  require_usable("solve_matrix");
  if (partial()) {
    throw std::logic_error("solve: factorization is partial (Schur mode)");
  }

  const Analysis& an = *analysis_;
  const int n = an.n;
  const int nrhs = b.cols;
  if (b.rows != n || x.rows != n || x.cols != nrhs) {
    throw std::invalid_argument("solve_matrix: shape mismatch");
  }
  const symbolic::SupernodePartition& part = an.blocks.part;
  const int nb = an.blocks.num_blocks();

  // Y = (scaled) Pr B, column-major workspace.
  blas::DenseMatrix y(n, nrhs);
  for (int i = 0; i < n; ++i) {
    int old = an.row_perm.old_of(i);
    double s = an.scaled() ? an.row_scale[old] : 1.0;
    for (int r = 0; r < nrhs; ++r) y(i, r) = s * b(old, r);
  }

  // Forward pass: per panel, gather the packed segment for all right-hand
  // sides, replay the pivots, unit-lower trsm, one gemm for the L part.
  blas::DenseMatrix seg_buf(0, 0);
  for (int k = 0; k < nb; ++k) {
    const int wk = part.width(k);
    std::vector<int> grows;
    for (int r = part.first(k); r < part.end(k); ++r) grows.push_back(r);
    for (int t : an.blocks.l_blocks(k)) {
      for (int r = part.first(t); r < part.end(t); ++r) grows.push_back(r);
    }
    const int m = static_cast<int>(grows.size());
    blas::DenseMatrix seg(m, nrhs);
    for (int p = 0; p < m; ++p) {
      for (int r = 0; r < nrhs; ++r) seg(p, r) = y(grows[p], r);
    }
    blas::laswp(seg.view(), ipiv_[k], 0, static_cast<int>(ipiv_[k].size()));
    blas::ConstMatrixView panel = blocks_.panel(k);
    blas::trsm(blas::Side::Left, blas::UpLo::Lower, blas::Trans::No,
               blas::Diag::Unit, 1.0, panel.block(0, 0, wk, wk),
               seg.view().block(0, 0, wk, nrhs));
    if (m > wk) {
      blas::gemm_dispatch(blas::Trans::No, blas::Trans::No, -1.0,
                          panel.block(wk, 0, m - wk, wk),
                          seg.view().block(0, 0, wk, nrhs), 1.0,
                          seg.view().block(wk, 0, m - wk, nrhs));
    }
    for (int p = 0; p < m; ++p) {
      for (int r = 0; r < nrhs; ++r) y(grows[p], r) = seg(p, r);
    }
  }

  // Backward pass: per block column, upper trsm on the diagonal block, then
  // one gemm per U block above it.
  for (int k = nb - 1; k >= 0; --k) {
    const int wk = part.width(k);
    blas::MatrixView yk = y.view().block(part.first(k), 0, wk, nrhs);
    blas::ConstMatrixView panel = blocks_.panel(k);
    blas::trsm(blas::Side::Left, blas::UpLo::Upper, blas::Trans::No,
               blas::Diag::NonUnit, 1.0, panel.block(0, 0, wk, wk), yk);
    blas::ConstMatrixView yk_c = yk;
    for (int i : blocks_.column_blocks(k)) {
      if (i >= k) break;
      blas::gemm_dispatch(blas::Trans::No, blas::Trans::No, -1.0,
                          blocks_.block(i, k), yk_c, 1.0,
                          y.view().block(part.first(i), 0, part.width(i), nrhs));
    }
  }

  // X = (scaled) Qc Y.
  for (int j = 0; j < n; ++j) {
    int old = an.col_perm.old_of(j);
    double s = an.scaled() ? an.col_scale[old] : 1.0;
    for (int r = 0; r < nrhs; ++r) x(old, r) = s * y(j, r);
  }
}

std::vector<double> Factorization::solve_transpose(const std::vector<double>& b) const {
  require_usable("solve_transpose");
  if (partial()) {
    throw std::logic_error("solve: factorization is partial (Schur mode)");
  }

  // A = Pr^T Apre Qc^T and Phat Apre = L U, so
  //   A^T x = b  <=>  U^T L^T Phat (Pr x) = Qc^T b.
  const Analysis& an = *analysis_;
  const int n = an.n;
  if (static_cast<int>(b.size()) != n) {
    throw std::invalid_argument("solve_transpose: rhs size mismatch");
  }
  const symbolic::SupernodePartition& part = an.blocks.part;
  const int nb = an.blocks.num_blocks();

  // c = Qc^T b (column-scaled when the analysis carries MC64 scalings:
  // A^T = Qc Dc Apre^T Dr Pr up to the permutation frames).
  std::vector<double> y(n);
  for (int j = 0; j < n; ++j) {
    int old = an.col_perm.old_of(j);
    y[j] = an.scaled() ? an.col_scale[old] * b[old] : b[old];
  }

  // Forward solve U^T z = c (U^T is lower triangular), column-oriented over
  // the stored U blocks: subtract the already-solved pieces, then solve the
  // transposed diagonal block.
  for (int k = 0; k < nb; ++k) {
    const int wk = part.width(k);
    double* yk = y.data() + part.first(k);
    for (int i : blocks_.column_blocks(k)) {
      if (i >= k) break;
      blas::ConstMatrixView uik = blocks_.block(i, k);
      // y_k -= U_ik^T y_i.
      blas::gemv(blas::Trans::Yes, -1.0, uik, y.data() + part.first(i), 1, 1.0,
                 yk, 1);
    }
    blas::ConstMatrixView panel = blocks_.panel(k);
    blas::ConstMatrixView ukk = panel.block(0, 0, wk, wk);
    blas::trsv(blas::UpLo::Upper, blas::Trans::Yes, blas::Diag::NonUnit, ukk, yk, 1);
  }

  // The stored L lives at deferred-pivot positions, so the global identity
  // Apre = Phat^T L U cannot be applied with the stored blocks directly.
  // Instead use the elimination-operator form: the forward factorization is
  // E = L_N^{-1} S_N ... L_1^{-1} S_1 with S_k the panel-k interchanges and
  // L_k the panel-k elementary eliminator (at the row positions current at
  // step k -- exactly what the storage holds), and Apre = E^{-1} U.  Hence
  // Apre^T w = c  solves as  v = U^{-T} c  followed by  w = E^T v, i.e. for
  // k = N..1: v := L_k^{-T} v, then v := S_k^T v (reverse the interchanges).
  std::vector<double> seg;
  for (int k = nb - 1; k >= 0; --k) {
    const int wk = part.width(k);
    std::vector<int> grows;
    for (int r = part.first(k); r < part.end(k); ++r) grows.push_back(r);
    for (int t : an.blocks.l_blocks(k)) {
      for (int r = part.first(t); r < part.end(t); ++r) grows.push_back(r);
    }
    seg.resize(grows.size());
    for (std::size_t p = 0; p < grows.size(); ++p) seg[p] = y[grows[p]];
    // L_k^{-T}: seg_K -= L_below^T seg_below, then unit-upper solve with
    // the transposed diagonal block.
    blas::ConstMatrixView panel = blocks_.panel(k);
    const int below = static_cast<int>(grows.size()) - wk;
    if (below > 0) {
      blas::ConstMatrixView lbelow = panel.block(wk, 0, below, wk);
      blas::gemv(blas::Trans::Yes, -1.0, lbelow, seg.data() + wk, 1, 1.0,
                 seg.data(), 1);
    }
    blas::ConstMatrixView lkk = panel.block(0, 0, wk, wk);
    blas::trsv(blas::UpLo::Lower, blas::Trans::Yes, blas::Diag::Unit, lkk,
               seg.data(), 1);
    // S_k^T: replay panel k's interchanges in reverse.
    const std::vector<int>& piv = ipiv_[k];
    for (std::size_t c = piv.size(); c-- > 0;) {
      if (piv[c] != static_cast<int>(c)) {
        std::swap(seg[c], seg[piv[c]]);
      }
    }
    for (std::size_t p = 0; p < grows.size(); ++p) y[grows[p]] = seg[p];
  }

  // x = Pr^T w, undoing the row scaling.
  std::vector<double> x(n);
  for (int i = 0; i < n; ++i) {
    int old = an.row_perm.old_of(i);
    x[old] = an.scaled() ? an.row_scale[old] * y[i] : y[i];
  }
  return x;
}

double relative_residual(const CscMatrix& a, const std::vector<double>& x,
                         const std::vector<double>& b) {
  std::vector<double> r;
  a.matvec(x, r);
  double rn = 0.0, xn = 0.0, bn = 0.0;
  for (std::size_t i = 0; i < r.size(); ++i) {
    rn = std::max(rn, std::abs(r[i] - b[i]));
    bn = std::max(bn, std::abs(b[i]));
  }
  for (double v : x) xn = std::max(xn, std::abs(v));
  double denom = a.norm_inf() * xn + bn;
  return denom > 0.0 ? rn / denom : rn;
}

double componentwise_backward_error(const CscMatrix& a,
                                    const std::vector<double>& x,
                                    const std::vector<double>& b) {
  const int n = a.rows();
  std::vector<double> r;
  a.matvec(x, r);  // r = A x
  std::vector<double> absax(n, 0.0);  // |A| |x|, accumulated columnwise
  for (int j = 0; j < a.cols(); ++j) {
    const double axj = std::abs(x[j]);
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      absax[a.row_index(k)] += std::abs(a.value(k)) * axj;
    }
  }
  double berr = 0.0;
  for (int i = 0; i < n; ++i) {
    const double denom = absax[i] + std::abs(b[i]);
    if (denom > 0.0) {
      berr = std::max(berr, std::abs(b[i] - r[i]) / denom);
    }
  }
  return berr;
}

}  // namespace plu
