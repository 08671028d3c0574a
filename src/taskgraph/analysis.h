// Task graph analysis: topological validation, critical path, edge-set
// comparison between the S* and eforest graphs, DOT export.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "taskgraph/build.h"
#include "taskgraph/costs.h"

namespace plu::taskgraph {

/// Topological order of the task graph; empty when the graph has a cycle.
std::vector<int> topological_order(const TaskGraph& g);

bool is_acyclic(const TaskGraph& g);

struct CriticalPath {
  double length = 0.0;        // weighted longest path (flops)
  std::vector<int> path;      // task ids along one critical path
  /// Lower bound on any P-processor makespan: max(critical path, total/P).
  double makespan_lower_bound(double total_flops, int p) const;
};

/// Longest path under the given task weights.
CriticalPath critical_path(const TaskGraph& g, const std::vector<double>& weights);

/// Per-task priority = weighted longest path from the task to any sink
/// ("bottom level"), the classic list-scheduling priority.
std::vector<double> bottom_levels(const TaskGraph& g,
                                  const std::vector<double>& weights);

/// True if every edge of `sub` connects tasks that are also ordered (via a
/// directed path) in `super`.  The eforest graph must be a subset of the
/// transitive closure of the S* graph over the same task list.
bool edges_subset_of_closure(const TaskGraph& sub, const TaskGraph& super);

/// True if u -> v is implied by g (directed path).  BFS; test helper.
bool reaches(const TaskGraph& g, int u, int v);

/// Precomputed transitive reachability of a DAG: one descendant bitset per
/// node, built in reverse topological order.  O(V*E/64) construction,
/// O(1) queries -- the all-pairs "are these tasks ordered?" primitive the
/// runtime race checker needs (rt::RaceChecker asks it for every pair of
/// tasks with conflicting footprints).
class Reachability {
 public:
  Reachability() = default;
  /// Builds from successor lists.  Throws std::invalid_argument when the
  /// graph has a cycle (reachability of a cyclic "dependence" graph is not
  /// an ordering, and the executors refuse such graphs anyway).
  explicit Reachability(const std::vector<std::vector<int>>& succ);
  explicit Reachability(const TaskGraph& g) : Reachability(g.succ) {}

  int size() const { return n_; }

  /// True if there is a directed path u -> v (u == v counts).
  bool reaches(int u, int v) const {
    return (bits_[static_cast<std::size_t>(u) * words_ + (v >> 6)] >>
            (v & 63)) & 1u;
  }

  /// True when the transitive dependence relation orders u and v either way.
  bool ordered(int u, int v) const { return reaches(u, v) || reaches(v, u); }

 private:
  int n_ = 0;
  int words_ = 0;
  std::vector<std::uint64_t> bits_;  // row u = descendants of u, incl. u
};

/// Graph statistics for reports.
struct GraphStats {
  int tasks = 0;
  long edges = 0;
  double critical_path_flops = 0.0;
  double total_flops = 0.0;
  double max_parallelism() const {
    return critical_path_flops > 0 ? total_flops / critical_path_flops : 0.0;
  }
};

GraphStats graph_stats(const TaskGraph& g, const TaskCosts& costs);

/// DOT export (Figure 4-style rendering of the dependence graph).
void write_task_graph_dot(std::ostream& os, const TaskGraph& g,
                          const std::string& name = "taskgraph");

}  // namespace plu::taskgraph
