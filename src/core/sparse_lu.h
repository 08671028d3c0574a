// Public facade of the library: analyze / factorize / solve in one object.
//
//   plu::SparseLU lu;
//   lu.analyze(A);               // symbolic pipeline (reusable across values)
//   lu.factorize(A);             // numeric factorization
//   std::vector<double> x = lu.solve(b);
//
// Options select the paper's techniques: eforest postordering on/off,
// S* vs eforest task graph, ordering, amalgamation, execution mode.
//
// Thread safety: one SparseLU instance is NOT safe for concurrent mutation
// (analyze/factorize are plain member functions over unguarded state), but
// DISTINCT instances are fully independent -- including when they share one
// rt::SharedRuntime via NumericOptions::shared_runtime, the intended way to
// run many factorizations concurrently on a single worker pool (the
// solver-service path, service/solver_service.h).  Per-instance state such
// as the analysis-reuse guard and analyze_count() stays exact under pool
// sharing.  const methods (the solve family) are safe to call concurrently
// on one instance once factorize() returned.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/analysis.h"
#include "core/numeric.h"
#include "core/refine.h"

namespace plu {

class SparseLU {
 public:
  SparseLU();
  explicit SparseLU(const Options& opt);

  const Options& options() const { return options_; }
  Options& options() { return options_; }
  NumericOptions& numeric_options() { return numeric_options_; }

  /// Runs the symbolic pipeline.  Invalidates any previous factorization.
  void analyze(const CscMatrix& a);

  /// Numeric factorization; runs analyze() first when the pattern differs
  /// from the analyzed one.  On the analyzed pattern this refactorizes IN
  /// PLACE (Factorization::refactor): references to factorization() and
  /// its storage stay valid and their values are replaced.  A new pattern
  /// frees the old factorization (analyze()) before the new one allocates,
  /// so at most one block slab is alive.  If the factorization throws, factorized()
  /// becomes false: half-written factors are never solved with.
  void factorize(const CscMatrix& a);

  /// One call doing both.
  void compute(const CscMatrix& a) { factorize(a); }

  /// One-shot factor + solve of a x = b: factorize(a) followed by solve(b).
  std::vector<double> factorize_and_solve(const CscMatrix& a,
                                          const std::vector<double>& b);

  bool analyzed() const { return analysis_ != nullptr; }
  bool factorized() const { return factorization_ != nullptr; }

  /// Number of times the symbolic pipeline actually ran on this object --
  /// the observable for the analysis-reuse guard (factorize() on an
  /// unchanged pattern must not bump it).
  long analyze_count() const { return analyze_count_; }

  /// Breakdown status of the last factorize() (core/status.h); kOk when no
  /// factorization ran yet.  Check factor_usable(factor_status()) before
  /// solving -- the solve paths throw std::runtime_error otherwise.
  FactorStatus factor_status() const {
    return factorization_ ? factorization_->status() : FactorStatus::kOk;
  }

  const Analysis& analysis() const;
  const Factorization& factorization() const;

  /// Solves A x = b; requires factorized().  Runs on the workers
  /// numeric_options() names (Factorization::solve_matrix).
  std::vector<double> solve(const std::vector<double>& b) const;

  /// Solves A^T x = b; requires factorized().
  std::vector<double> solve_transpose(const std::vector<double>& b) const;

  /// Solve with iterative refinement against the matrix last factorized.
  RefineResult solve_refined(const std::vector<double>& b,
                             const RefineOptions& opt = {}) const;

  /// Convenience one-shot: factor a and solve a x = b.
  static std::vector<double> solve_system(const CscMatrix& a,
                                          const std::vector<double>& b,
                                          const Options& opt = {},
                                          const NumericOptions& nopt = {});

 private:
  /// Full pattern-reuse guard (dims + fingerprint + confirming compare
  /// against Analysis::input_pattern).
  bool pattern_matches(const CscMatrix& a) const;

  Options options_;
  NumericOptions numeric_options_;
  /// Fingerprint of the analyzed pattern: the cheap first tier of the reuse
  /// guard (dims + hash reject mismatches; the full compare only confirms
  /// hash matches).
  std::uint64_t analyzed_fingerprint_ = 0;
  long analyze_count_ = 0;
  std::unique_ptr<Analysis> analysis_;
  std::unique_ptr<Factorization> factorization_;
  std::optional<CscMatrix> last_matrix_;  // kept for refinement
};

}  // namespace plu
