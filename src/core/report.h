// Structured analysis/factorization report: every statistic the examples,
// the CLI and the benches keep re-deriving, gathered once with a printable
// rendering.  A downstream user's first stop when a factorization behaves
// unexpectedly.
#pragma once

#include <iosfwd>
#include <string>

#include "core/numeric.h"
#include "graph/forest.h"
#include "symbolic/supernodes.h"
#include "taskgraph/analysis.h"

namespace plu {

struct AnalysisReport {
  // Input.
  int n = 0;
  int nnz = 0;
  // Ordering (what the dispatch ran; chosen != requested only under kAuto).
  ordering::Decision ordering;
  // Symbolic.
  double fill_ratio = 0.0;
  long nnz_abar = 0;
  bool mc64_scaled = false;
  int diag_blocks = 0;
  // Supernodes / blocks.
  symbolic::SupernodeStats supernodes;
  symbolic::SupernodeStats exact_supernodes;
  long extra_closure_blocks = 0;
  // Forest shape (the block eforest driving the task graph).
  graph::ForestStats beforest;
  // Task graph.
  std::string graph_kind;
  taskgraph::GraphStats graph;
  // Block plan summary (symbolic/repartition.h): L blocks and the
  // structural row runs the updates write.
  symbolic::BlockPlanSummary blocking;
  // Per-phase wall-clock breakdown of the analyze run.
  AnalysisTimings timings;
};

/// Collects the report from an analysis.
AnalysisReport report(const Analysis& an);

struct FactorizationReport {
  std::string driver;  // NumericDriver::name() of the driver that ran
  FactorStatus status = FactorStatus::kOk;
  int failed_column = -1;  // breakdown column when status is singular/overflow
  bool singular = false;
  int zero_pivots = 0;
  long pivot_interchanges = 0;
  long lazy_skipped_updates = 0;
  double min_pivot_ratio = 0.0;
  double growth_factor = 0.0;
  /// Static pivot perturbation log (NumericOptions::perturb_pivots).
  double perturbation_magnitude = 0.0;
  std::vector<int> perturbed_columns;
  std::size_t stored_doubles = 0;
  /// Peak block-storage footprint in bytes (arena capacity including
  /// alignment padding).
  std::size_t storage_bytes = 0;
  /// The run's row-run routing counters (Factorization::blocking_stats()).
  symbolic::BlockingStats blocking;
  /// Wall seconds of the run's load, DAG and scan phases
  /// (Factorization::phase_times()).
  NumericPhaseTimes phases;
  /// Analyze-phase breakdown of the analysis this factorization ran on, so
  /// analyze-vs-factorize cost is visible without a profiler.
  AnalysisTimings analysis_timings;
  /// Ordering decision of that analysis (the kAuto policy's pick and the
  /// features it decided on) -- the "which ordering did I actually get"
  /// answer without re-running the analysis report.
  ordering::Decision ordering;
};

FactorizationReport report(const Factorization& f);

/// Multi-line human-readable rendering.
std::string to_string(const AnalysisReport& r);
std::string to_string(const FactorizationReport& r);

/// The `phases:` line: the numeric run's load, DAG and scan wall times.
std::string to_string(const NumericPhaseTimes& t);

/// One line per analysis phase with percentages of the total -- the
/// rendering behind plu_solve --verbose.
std::string to_string(const AnalysisTimings& t);

/// The `ordering:` line of both reports: the method that ran (and the one
/// requested, when kAuto resolved it), the engine, every structural feature
/// the policy reads, and the dry-run fills when one ran.
std::string to_string(const ordering::Decision& d);

std::ostream& operator<<(std::ostream& os, const AnalysisReport& r);
std::ostream& operator<<(std::ostream& os, const FactorizationReport& r);

}  // namespace plu
