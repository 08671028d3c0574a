#include "core/sparse_lu.h"

#include <stdexcept>

namespace plu {

SparseLU::SparseLU() = default;
SparseLU::SparseLU(const Options& opt) : options_(opt) {}

void SparseLU::analyze(const CscMatrix& a) {
  analysis_ = std::make_unique<Analysis>(plu::analyze(a, options_));
  analyzed_fingerprint_ = structure_fingerprint(a.rows(), a.cols(),
                                                a.col_ptr(), a.row_ind());
  ++analyze_count_;
  factorization_.reset();
  last_matrix_.reset();
}

bool SparseLU::pattern_matches(const CscMatrix& a) const {
  // Reuse the analysis only for the SAME sparsity pattern: a same-size
  // matrix with new structure needs its own symbolic factorization (values
  // may change freely -- that is the point of the static approach).
  // Tiered guard: dims + fingerprint reject almost every mismatch without
  // touching the index arrays; the full compare only confirms a hash match
  // (64-bit collisions exist).
  if (!analysis_) return false;
  const Pattern& p = analysis_->input_pattern;
  bool same_pattern = p.rows == a.rows() && p.cols == a.cols();
  if (same_pattern) {
    same_pattern = analyzed_fingerprint_ ==
                   structure_fingerprint(a.rows(), a.cols(), a.col_ptr(),
                                         a.row_ind());
  }
  if (same_pattern) {
    same_pattern = p.ptr == a.col_ptr() && p.idx == a.row_ind();
  }
  return same_pattern;
}

void SparseLU::factorize(const CscMatrix& a) {
  if (!pattern_matches(a)) analyze(a);
  if (factorization_) {
    // Same pattern: new values into the same slab.
    try {
      factorization_->refactor(a, numeric_options_);
    } catch (...) {
      factorization_.reset();
      last_matrix_.reset();
      throw;
    }
  } else {
    factorization_ =
        std::make_unique<Factorization>(*analysis_, a, numeric_options_);
  }
  last_matrix_ = a;
}

std::vector<double> SparseLU::factorize_and_solve(const CscMatrix& a,
                                                  const std::vector<double>& b) {
  factorize(a);
  return solve(b);
}

const Analysis& SparseLU::analysis() const {
  if (!analysis_) throw std::logic_error("SparseLU: analyze() not called");
  return *analysis_;
}

const Factorization& SparseLU::factorization() const {
  if (!factorization_) throw std::logic_error("SparseLU: factorize() not called");
  return *factorization_;
}

std::vector<double> SparseLU::solve(const std::vector<double>& b) const {
  return factorization().solve(b, numeric_options_);
}

std::vector<double> SparseLU::solve_transpose(const std::vector<double>& b) const {
  return factorization().solve_transpose(b);
}

RefineResult SparseLU::solve_refined(const std::vector<double>& b,
                                     const RefineOptions& opt) const {
  if (!last_matrix_) throw std::logic_error("SparseLU: factorize() not called");
  return refined_solve(factorization(), *last_matrix_, b, opt);
}

std::vector<double> SparseLU::solve_system(const CscMatrix& a,
                                           const std::vector<double>& b,
                                           const Options& opt,
                                           const NumericOptions& nopt) {
  SparseLU lu(opt);
  lu.numeric_options() = nopt;
  lu.factorize(a);
  return lu.solve(b);
}

}  // namespace plu
