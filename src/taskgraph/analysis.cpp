#include "taskgraph/analysis.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <ostream>
#include <stdexcept>

namespace plu::taskgraph {

std::vector<int> topological_order(const TaskGraph& g) {
  const int n = g.size();
  std::vector<int> indeg = g.indegree;
  std::vector<int> order;
  order.reserve(n);
  std::deque<int> ready;
  for (int v = 0; v < n; ++v) {
    if (indeg[v] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    int v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for (int s : g.succ[v]) {
      if (--indeg[s] == 0) ready.push_back(s);
    }
  }
  if (static_cast<int>(order.size()) != n) order.clear();
  return order;
}

bool is_acyclic(const TaskGraph& g) { return !topological_order(g).empty() || g.size() == 0; }

double CriticalPath::makespan_lower_bound(double total_flops, int p) const {
  return std::max(length, total_flops / std::max(1, p));
}

CriticalPath critical_path(const TaskGraph& g, const std::vector<double>& weights) {
  CriticalPath cp;
  std::vector<int> order = topological_order(g);
  assert(!order.empty() || g.size() == 0);
  const int n = g.size();
  std::vector<double> dist(n, 0.0);  // longest path ending at v, inclusive
  std::vector<int> pred(n, -1);
  for (int v : order) {
    dist[v] += weights[v];
    for (int s : g.succ[v]) {
      if (dist[v] > dist[s]) {
        dist[s] = dist[v];
        pred[s] = v;
      }
    }
  }
  int best = 0;
  for (int v = 0; v < n; ++v) {
    if (dist[v] > dist[best]) best = v;
  }
  if (n > 0) {
    cp.length = dist[best];
    for (int v = best; v != -1; v = pred[v]) cp.path.push_back(v);
    std::reverse(cp.path.begin(), cp.path.end());
  }
  return cp;
}

std::vector<double> bottom_levels(const TaskGraph& g,
                                  const std::vector<double>& weights) {
  std::vector<int> order = topological_order(g);
  std::vector<double> bl(g.size(), 0.0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    int v = *it;
    double best = 0.0;
    for (int s : g.succ[v]) best = std::max(best, bl[s]);
    bl[v] = weights[v] + best;
  }
  return bl;
}

bool reaches(const TaskGraph& g, int u, int v) {
  if (u == v) return true;
  std::vector<char> seen(g.size(), 0);
  std::deque<int> q = {u};
  seen[u] = 1;
  while (!q.empty()) {
    int x = q.front();
    q.pop_front();
    for (int s : g.succ[x]) {
      if (s == v) return true;
      if (!seen[s]) {
        seen[s] = 1;
        q.push_back(s);
      }
    }
  }
  return false;
}

Reachability::Reachability(const std::vector<std::vector<int>>& succ)
    : n_(static_cast<int>(succ.size())), words_((n_ + 63) / 64) {
  std::vector<int> indeg(n_, 0);
  for (int u = 0; u < n_; ++u) {
    for (int s : succ[u]) ++indeg[s];
  }
  std::vector<int> order;
  order.reserve(n_);
  std::deque<int> ready;
  for (int v = 0; v < n_; ++v) {
    if (indeg[v] == 0) ready.push_back(v);
  }
  while (!ready.empty()) {
    int v = ready.front();
    ready.pop_front();
    order.push_back(v);
    for (int s : succ[v]) {
      if (--indeg[s] == 0) ready.push_back(s);
    }
  }
  if (static_cast<int>(order.size()) != n_) {
    throw std::invalid_argument("Reachability: graph is cyclic");
  }
  bits_.assign(static_cast<std::size_t>(n_) * words_, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const int u = *it;
    std::uint64_t* row = bits_.data() + static_cast<std::size_t>(u) * words_;
    row[u >> 6] |= std::uint64_t{1} << (u & 63);
    for (int s : succ[u]) {
      const std::uint64_t* srow =
          bits_.data() + static_cast<std::size_t>(s) * words_;
      for (int w = 0; w < words_; ++w) row[w] |= srow[w];
    }
  }
}

bool edges_subset_of_closure(const TaskGraph& sub, const TaskGraph& super) {
  if (sub.size() != super.size()) return false;
  for (int u = 0; u < sub.size(); ++u) {
    for (int v : sub.succ[u]) {
      if (!reaches(super, u, v)) return false;
    }
  }
  return true;
}

GraphStats graph_stats(const TaskGraph& g, const TaskCosts& costs) {
  GraphStats s;
  s.tasks = g.size();
  s.edges = g.num_edges();
  s.total_flops = costs.total_flops;
  s.critical_path_flops = critical_path(g, costs.flops).length;
  return s;
}

void write_task_graph_dot(std::ostream& os, const TaskGraph& g,
                          const std::string& name) {
  os << "digraph " << name << " {\n  node [shape=box];\n";
  for (int id = 0; id < g.size(); ++id) {
    os << "  t" << id << " [label=\"" << to_string(g.tasks.task(id)) << "\"];\n";
  }
  for (int id = 0; id < g.size(); ++id) {
    for (int s : g.succ[id]) {
      os << "  t" << id << " -> t" << s << ";\n";
    }
  }
  os << "}\n";
}

}  // namespace plu::taskgraph
