#include "core/report.h"

#include <algorithm>
#include <ostream>
#include <sstream>

namespace plu {

std::string to_string(const ordering::Decision& d) {
  std::ostringstream os;
  os << "ordering:    " << ordering::to_string(d.chosen);
  if (d.requested != d.chosen) {
    os << " (requested " << ordering::to_string(d.requested) << ")";
  }
  if (!d.engine.empty()) os << ", engine " << d.engine;
  os << "; n=" << d.features.n << ", avg degree " << d.features.avg_degree
     << ", skew " << d.features.degree_skew
     << ", band " << d.features.bandwidth_ratio;
  if (d.dry_run) {
    os << "; dry-run fill " << d.dry_run_fill_chosen << " vs "
       << d.dry_run_fill_alternative;
  }
  return os.str();
}

AnalysisReport report(const Analysis& an) {
  AnalysisReport r;
  r.n = an.n;
  r.nnz = an.nnz_input;
  r.ordering = an.ordering_decision;
  r.fill_ratio = an.fill_ratio();
  r.nnz_abar = an.symbolic.abar.nnz();
  r.mc64_scaled = an.scaled();
  r.diag_blocks = static_cast<int>(an.diag_block_sizes.size());
  r.supernodes = symbolic::supernode_stats(an.partition);
  r.exact_supernodes = symbolic::supernode_stats(an.exact_partition);
  r.extra_closure_blocks = an.blocks.extra_blocks_from_closure;
  r.beforest = graph::forest_stats(an.blocks.beforest);
  r.graph_kind = taskgraph::to_string(an.graph.kind);
  r.graph = taskgraph::graph_stats(an.graph, an.costs);
  r.blocking = an.block_plan.summary;
  r.timings = an.timings;
  return r;
}

FactorizationReport report(const Factorization& f) {
  FactorizationReport r;
  r.driver = f.driver_name();
  r.status = f.status();
  r.failed_column = f.failed_column();
  r.min_pivot_ratio = f.min_pivot_ratio();
  r.growth_factor = f.growth_factor();
  r.perturbation_magnitude = f.perturbation_magnitude();
  r.perturbed_columns = f.perturbed_columns();
  r.singular = f.singular();
  r.zero_pivots = f.zero_pivots();
  r.pivot_interchanges = f.pivot_interchanges();
  r.lazy_skipped_updates = f.lazy_skipped_updates();
  r.stored_doubles = f.blocks().stored_doubles();
  r.storage_bytes = f.blocks().storage_bytes();
  r.blocking = f.blocking_stats();
  r.analysis_timings = f.analysis().timings;
  r.ordering = f.analysis().ordering_decision;
  return r;
}

std::string to_string(const AnalysisReport& r) {
  std::ostringstream os;
  os << "matrix:      n=" << r.n << ", nnz=" << r.nnz
     << (r.mc64_scaled ? " (MC64-scaled)" : "") << '\n';
  os << to_string(r.ordering) << '\n';
  os << "symbolic:    |Abar|=" << r.nnz_abar << " (" << r.fill_ratio
     << "x fill), " << r.diag_blocks << " diagonal block(s)\n";
  os << "supernodes:  " << r.supernodes.count << " (exact "
     << r.exact_supernodes.count << "), avg width " << r.supernodes.avg_width
     << ", max " << r.supernodes.max_width << ", closure padding "
     << r.extra_closure_blocks << " block(s)\n";
  os << "beforest:    " << r.beforest.trees << " tree(s), " << r.beforest.leaves
     << " leaves, height " << r.beforest.height << ", max branching "
     << r.beforest.max_branching << '\n';
  if (r.blocking.built) {
    os << "row runs:    " << r.blocking.row_runs << " structural run(s) in "
       << r.blocking.panel_blocks << " L block(s), "
       << r.blocking.rows_skipped << " L row(s) skipped by the updates\n";
  }
  os << "task graph:  " << r.graph_kind << ", " << r.graph.tasks << " tasks, "
     << r.graph.edges << " edges, " << r.graph.total_flops / 1e9
     << " Gflop total, max parallelism " << r.graph.max_parallelism();
  return os.str();
}

std::string to_string(const FactorizationReport& r) {
  std::ostringstream os;
  os << to_string(r.ordering) << '\n';
  os << "numeric:     " << r.driver << " driver, status "
     << to_string(r.status);
  if (!factor_usable(r.status)) {
    os << " (failed at column " << r.failed_column << ")";
  }
  os << ", " << r.pivot_interchanges << " interchange(s), " << r.zero_pivots
     << " zero pivot(s), " << r.lazy_skipped_updates
     << " lazy-skipped update(s), min pivot ratio " << r.min_pivot_ratio
     << ", growth factor " << r.growth_factor << ", "
     << 8.0 * r.stored_doubles / 1e6 << " MB factor values ("
     << r.storage_bytes / 1e6 << " MB peak storage)";
  os << "\nblocking:    " << r.blocking.tile_runs << " row run(s) ("
     << r.blocking.gemms_fused << " fused), routed "
     << r.blocking.routed_packed << " packed / " << r.blocking.routed_direct
     << " direct, " << r.blocking.scans_elided << " scan(s) elided";
  if (!r.perturbed_columns.empty()) {
    os << "\nperturbed:   " << r.perturbed_columns.size()
       << " pivot(s) bumped to " << r.perturbation_magnitude << " at column(s)";
    const std::size_t shown = std::min<std::size_t>(8, r.perturbed_columns.size());
    for (std::size_t i = 0; i < shown; ++i) os << ' ' << r.perturbed_columns[i];
    if (shown < r.perturbed_columns.size()) {
      os << " ... (+" << r.perturbed_columns.size() - shown << " more)";
    }
    os << "; pair with refined_solve to recover accuracy";
  }
  return os.str();
}

std::string to_string(const AnalysisTimings& t) {
  std::ostringstream os;
  auto line = [&](const char* name, double s) {
    double pct = t.total > 0 ? 100.0 * s / t.total : 0.0;
    os << "  " << name << std::string(18 - std::string(name).size(), ' ')
       << s * 1e3 << " ms (" << pct << "%)\n";
  };
  os << "analysis:    " << t.total * 1e3 << " ms total\n";
  line("ordering", t.ordering);
  line("transversal", t.transversal);
  line("symbolic", t.symbolic);
  line("eforest+postorder", t.eforest_postorder);
  line("supernodes", t.supernodes);
  line("blocks", t.blocks);
  line("taskgraph", t.taskgraph);
  std::string s = os.str();
  s.pop_back();  // trailing newline
  return s;
}

std::ostream& operator<<(std::ostream& os, const AnalysisReport& r) {
  return os << to_string(r);
}

std::ostream& operator<<(std::ostream& os, const FactorizationReport& r) {
  return os << to_string(r);
}

}  // namespace plu
