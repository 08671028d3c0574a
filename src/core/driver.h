// Numeric driver tier: one interface both layouts implement, so the
// Factorization constructor, the SparseLU facade, the trace writer and the
// race checker are written once against it.
//
// A driver owns nothing.  It receives the run state the Factorization
// constructor assembled (block storage loaded, pivot vectors sized, the
// layout-matching task graph, an optional race checker) and executes the
// factorization tasks over it according to NumericOptions -- enumeration,
// dispatch and footprint recording only (no locks); the task BODIES live in
// core/kernels.h, shared by both drivers.
#pragma once

#include <limits>
#include <vector>

#include "core/analysis.h"
#include "core/block_storage.h"
#include "core/status.h"
#include "runtime/race_checker.h"

namespace plu {

struct NumericOptions;

/// Mutable state of one factorization run.  Assembled by the Factorization
/// constructor; results are read back out of it after factorize().
struct NumericRun {
  const Analysis& an;
  BlockMatrix& blocks;
  /// Per-stage pivot sequences: panel-wide for the 1-D driver, local to the
  /// diagonal block for the 2-D driver (every index < the block width --
  /// which is why the layout-agnostic solves work for both).
  std::vector<std::vector<int>>& ipiv;
  /// The task graph matching the driver's granularity.
  const taskgraph::TaskGraph& graph;
  rt::RaceChecker* checker = nullptr;
  /// Number of leading stages to run (== num_blocks for a full run; less is
  /// the sequential Schur-complement mode).
  int stages = 0;
  /// Static pivot perturbation magnitude (0 disables).  Set by the
  /// Factorization constructor to sqrt(eps) * max|A| when
  /// NumericOptions::perturb_pivots is on.
  double perturb_magnitude = 0.0;

  // Outputs.
  int zero_pivots = 0;
  long lazy_skipped = 0;
  double min_pivot = std::numeric_limits<double>::infinity();
  /// Breakdown status of the run.  On kSingular / kOverflow the remaining
  /// tasks were cancelled; failed_column is the smallest global column
  /// among the breakdowns the run observed before stopping (deterministic
  /// across schedules when the matrix has a single breakdown, because only
  /// a failure triggers cancellation -- the failing task always runs).
  FactorStatus status = FactorStatus::kOk;
  int failed_column = -1;
  /// Perturbation log: global columns whose pivot was bumped (sorted).
  std::vector<int> perturbed_columns{};
  /// Row-run routing counters.
  symbolic::BlockingStats blocking{};
};

class NumericDriver {
 public:
  virtual ~NumericDriver() = default;

  virtual Layout layout() const = 0;
  /// Short human-readable name, surfaced in reports ("which driver ran").
  virtual const char* name() const = 0;
  /// Runs the factorization tasks.  Throws std::logic_error on a cyclic
  /// graph or incomplete threaded execution.
  virtual void factorize(NumericRun& run, const NumericOptions& opt) const = 0;

  /// The driver singleton for a layout.
  static const NumericDriver& driver_for(Layout layout);
};

}  // namespace plu
