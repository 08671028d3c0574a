// Test-only oracle: the exact minimum-degree engine with a full-rescan
// degree refresh.  Every touched variable's degree is recomputed from
// scratch (plain edges plus every live element boundary), which is slow but
// obviously exact.  MinimumDegreeEquivalence.* (test_ordering.cpp) requires
// ordering::minimum_degree to return the bitwise-identical permutation.
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "matrix/csc.h"
#include "matrix/permutation.h"
#include "ordering/degree_lists.h"

namespace plu::test {

inline Permutation reference_minimum_degree(
    const Pattern& symmetric_pattern) {
  using ordering::detail::DegreeLists;
  assert(symmetric_pattern.rows == symmetric_pattern.cols);
  const int n = symmetric_pattern.cols;
  Pattern g = Pattern::symmetrized(symmetric_pattern);

  // Quotient graph state.
  std::vector<std::vector<int>> adj(n);       // variable-variable edges
  std::vector<std::vector<int>> var_elems(n); // elements adjacent to variable
  std::vector<std::vector<int>> elem_vars;    // element boundary lists
  std::vector<char> eliminated(n, 0);
  std::vector<char> elem_alive;

  for (int v = 0; v < n; ++v) {
    for (const int* it = g.col_begin(v); it != g.col_end(v); ++it) {
      if (*it != v) adj[v].push_back(*it);
    }
  }

  DegreeLists lists(n, n);
  for (int v = 0; v < n; ++v) lists.insert(v, static_cast<int>(adj[v].size()));

  std::vector<int> order;
  order.reserve(n);
  std::vector<int> mark(n, -1);
  int stamp = 0;
  std::vector<int> boundary;

  // Computes the current exact external degree of u (reachable set size via
  // plain edges + live element boundaries), compacting u's lists in passing.
  auto exact_degree = [&](int u) {
    ++stamp;
    mark[u] = stamp;
    int deg = 0;
    std::size_t w = 0;
    for (std::size_t r = 0; r < adj[u].size(); ++r) {
      int x = adj[u][r];
      if (eliminated[x]) continue;
      adj[u][w++] = x;
      if (mark[x] != stamp) {
        mark[x] = stamp;
        ++deg;
      }
    }
    adj[u].resize(w);
    w = 0;
    for (std::size_t r = 0; r < var_elems[u].size(); ++r) {
      int e = var_elems[u][r];
      if (!elem_alive[e]) continue;
      var_elems[u][w++] = e;
      for (int x : elem_vars[e]) {
        if (x == u || eliminated[x]) continue;
        if (mark[x] != stamp) {
          mark[x] = stamp;
          ++deg;
        }
      }
    }
    var_elems[u].resize(w);
    return deg;
  };

  // Multiple elimination (GENMMD-style): within one pass, eliminate every
  // minimum-degree variable that is independent of the variables already
  // eliminated in the pass, and only then refresh the degrees of the touched
  // boundary.  Besides being faster, this produces BUSHY elimination trees
  // (independent nodes of equal degree become siblings, not a chain), which
  // is what gives the paper's task graphs their tree parallelism.
  std::vector<int> pass_mark(n, -1);
  int pass_id = 0;
  std::vector<int> touched;
  std::vector<std::pair<int, int>> stash;  // popped but deferred (node, degree)

  int eliminated_count = 0;
  while (eliminated_count < n) {
    ++pass_id;
    touched.clear();
    stash.clear();
    int d0 = -1;
    for (;;) {
      int dv = 0;
      int v = lists.pop_min(&dv);
      if (v == -1) break;
      if (d0 == -1) d0 = dv;
      if (dv > d0) {
        stash.push_back({v, dv});
        break;  // pass covers one degree level only
      }
      if (pass_mark[v] == pass_id) {
        // Adjacent to something eliminated this pass: its degree is stale.
        stash.push_back({v, dv});
        continue;
      }
      eliminated[v] = 1;
      order.push_back(v);
      ++eliminated_count;

      // Boundary of the new element: reachable live variables of v.
      ++stamp;
      mark[v] = stamp;
      boundary.clear();
      for (int x : adj[v]) {
        if (!eliminated[x] && mark[x] != stamp) {
          mark[x] = stamp;
          boundary.push_back(x);
        }
      }
      for (int e : var_elems[v]) {
        if (!elem_alive[e]) continue;
        for (int x : elem_vars[e]) {
          if (!eliminated[x] && mark[x] != stamp) {
            mark[x] = stamp;
            boundary.push_back(x);
          }
        }
        elem_alive[e] = 0;  // absorbed into the new element
      }
      if (boundary.empty()) continue;

      int eid = static_cast<int>(elem_vars.size());
      elem_vars.push_back(boundary);
      elem_alive.push_back(1);
      for (int u : boundary) {
        var_elems[u].push_back(eid);
        if (pass_mark[u] != pass_id) {
          pass_mark[u] = pass_id;
          touched.push_back(u);
        }
      }
    }
    // Reinsert deferred variables with their old degree, then refresh every
    // touched variable's exact degree (stash members that were touched get
    // refreshed by the second loop; update() keeps list state consistent).
    for (auto [u, d] : stash) {
      if (!eliminated[u]) lists.insert(u, d);
    }
    for (int u : touched) {
      if (!eliminated[u]) lists.update(u, exact_degree(u));
    }
  }

  return Permutation::from_old_positions(std::move(order));
}

}  // namespace plu::test
