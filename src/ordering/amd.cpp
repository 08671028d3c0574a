#include "ordering/amd.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "ordering/degree_lists.h"

namespace plu::ordering {

namespace {

// Variable lifecycle in the quotient graph.
constexpr char kLive = 0;        // active (super)variable
constexpr char kEliminated = 1;  // pivot, already emitted to the order
constexpr char kAbsorbed = 2;    // merged into a supervariable representative

inline std::uint64_t var_hash(int v) {
  return (static_cast<std::uint64_t>(v) + 1) * 0x9E3779B97F4A7C15ull;
}
inline std::uint64_t elem_hash(int e) {
  return (static_cast<std::uint64_t>(e) + 1) * 0xC2B2AE3D27D4EB4Full;
}

/// Set equality of the two sorted adjacency lists, ignoring a mutual edge
/// (u in adj_w / w in adj_u) -- the indistinguishability test
/// Adj(u) + {u} == Adj(w) + {w}.
bool same_adjacency(const std::vector<int>& adj_u, int u,
                    const std::vector<int>& adj_w, int w) {
  std::size_t i = 0, j = 0;
  for (;;) {
    while (i < adj_u.size() && adj_u[i] == w) ++i;
    while (j < adj_w.size() && adj_w[j] == u) ++j;
    if (i == adj_u.size() || j == adj_w.size()) {
      return i == adj_u.size() && j == adj_w.size();
    }
    if (adj_u[i] != adj_w[j]) return false;
    ++i;
    ++j;
  }
}

}  // namespace

bool hub_heavy(const Pattern& g) {
  const int n = g.cols;
  if (n < 2048) return false;
  long max_deg = 0;
  for (int j = 0; j < n; ++j) {
    max_deg = std::max(max_deg, static_cast<long>(g.col_end(j) - g.col_begin(j)));
  }
  const double avg_deg = static_cast<double>(g.nnz()) / n;
  return max_deg >= 256 && static_cast<double>(max_deg) >= 8.0 * avg_deg;
}

Permutation approximate_minimum_degree(const Pattern& symmetric_pattern) {
  assert(symmetric_pattern.rows == symmetric_pattern.cols);
  const int n = symmetric_pattern.cols;
  if (n == 0) return Permutation(0);
  Pattern g = Pattern::symmetrized(symmetric_pattern);

  // Quotient graph: plain variable-variable edges, element boundary lists,
  // supervariable weights.
  std::vector<std::vector<int>> adj(n);
  std::vector<std::vector<int>> elems(n);       // elements adjacent to var
  std::vector<std::vector<int>> elem_vars;      // element boundary lists
  std::vector<long> elem_wsize;                 // weighted boundary size
  std::vector<char> elem_alive;
  std::vector<char> state(n, kLive);
  std::vector<int> weight(n, 1);                // supervariable cardinality
  std::vector<std::vector<int>> absorbed(n);    // members merged into v

  for (int v = 0; v < n; ++v) {
    for (const int* it = g.col_begin(v); it != g.col_end(v); ++it) {
      if (*it != v) adj[v].push_back(*it);
    }
  }

  detail::DegreeLists lists(n, n);
  for (int v = 0; v < n; ++v) {
    long d = 0;
    for (int x : adj[v]) d += weight[x];
    lists.insert(v, static_cast<int>(std::min<long>(d, n)));
  }

  std::vector<int> order;
  order.reserve(n);
  int placed = 0;
  std::vector<int> emit_stack;
  // Emits v and, pre-order, every variable absorbed into it: a supervariable
  // occupies consecutive positions, representative first.
  auto emit = [&](int v) {
    emit_stack.assign(1, v);
    while (!emit_stack.empty()) {
      int x = emit_stack.back();
      emit_stack.pop_back();
      order.push_back(x);
      ++placed;
      for (auto it = absorbed[x].rbegin(); it != absorbed[x].rend(); ++it) {
        emit_stack.push_back(*it);
      }
    }
  };

  // Sequential scratch for pivot elimination.
  std::vector<int> mark(n, -1);
  int stamp = 0;
  std::vector<int> boundary;

  // Per-round state.
  std::vector<int> round_mark(n, -1);   // var adjacent to a round element
  std::vector<char> touched_mark(n, 0);
  std::vector<int> touched;
  std::vector<std::pair<int, int>> stash;  // popped but deferred (var, degree)
  std::vector<int> elem_round_mark;        // element gathered this round
  std::vector<int> rel_elems;
  std::vector<long> degree_slot(n, 0);
  std::vector<std::uint64_t> hash_slot(n, 0);
  std::unordered_map<std::uint64_t, std::vector<int>> buckets;
  int round = 0;

  // Eliminates pivot v: forms the new element from v's live reach, absorbs
  // v's old elements, and prunes boundary adjacency lists of edges the new
  // element now covers.
  auto eliminate_pivot = [&](int v) {
    state[v] = kEliminated;
    emit(v);
    ++stamp;
    mark[v] = stamp;
    boundary.clear();
    for (int x : adj[v]) {
      if (state[x] == kLive && mark[x] != stamp) {
        mark[x] = stamp;
        boundary.push_back(x);
      }
    }
    for (int e : elems[v]) {
      if (!elem_alive[e]) continue;
      for (int x : elem_vars[e]) {
        if (state[x] == kLive && mark[x] != stamp) {
          mark[x] = stamp;
          boundary.push_back(x);
        }
      }
      elem_alive[e] = 0;  // absorbed into the new element
    }
    if (boundary.empty()) return;
    std::sort(boundary.begin(), boundary.end());

    const int eid = static_cast<int>(elem_vars.size());
    elem_vars.push_back(boundary);
    long wsz = 0;
    for (int u : boundary) wsz += weight[u];
    elem_wsize.push_back(wsz);
    elem_alive.push_back(1);
    elem_round_mark.push_back(-1);
    for (int u : boundary) {
      elems[u].push_back(eid);
      round_mark[u] = round;
      if (!touched_mark[u]) {
        touched_mark[u] = 1;
        touched.push_back(u);
      }
      // Edges inside the element are now covered by it; drop them (and any
      // edge to a dead variable) so plain adjacency stays sparse.
      std::size_t w = 0;
      for (std::size_t r = 0; r < adj[u].size(); ++r) {
        int x = adj[u][r];
        if (state[x] == kLive && mark[x] != stamp) adj[u][w++] = x;
      }
      adj[u].resize(w);
    }
  };

  while (placed < n) {
    ++round;
    touched.clear();
    stash.clear();

    // --- Selection: eliminate every minimum-degree variable independent of
    // the pivots already taken this round (round_mark flags stale degrees).
    int d0 = -1;
    for (;;) {
      int dv = 0;
      int v = lists.pop_min(&dv);
      if (v == -1) break;
      if (d0 == -1) d0 = dv;
      if (dv > d0) {
        stash.push_back({v, dv});
        break;  // a round covers one degree level only
      }
      if (round_mark[v] == round) {
        stash.push_back({v, dv});
        continue;
      }
      eliminate_pivot(v);
    }

    // --- Refresh: recompute what this round's eliminations invalidated.
    std::sort(touched.begin(), touched.end());
    for (int u : touched) touched_mark[u] = 0;

    // Live elements adjacent to any touched variable, in first-touch order.
    rel_elems.clear();
    for (int u : touched) {
      for (int e : elems[u]) {
        if (elem_alive[e] && elem_round_mark[e] != round) {
          elem_round_mark[e] = round;
          rel_elems.push_back(e);
        }
      }
    }

    // (a) Compact element boundaries and their weighted sizes.
    for (int el : rel_elems) {
      std::vector<int>& vars = elem_vars[el];
      std::size_t w = 0;
      long wsz = 0;
      for (std::size_t r = 0; r < vars.size(); ++r) {
        int x = vars[r];
        if (state[x] == kLive) {
          vars[w++] = x;
          wsz += weight[x];
        }
      }
      vars.resize(w);
      elem_wsize[el] = wsz;
    }

    // (b) Per-variable refresh: compact + sort adjacency, approximate
    // external degree, supervariable hash.  weight/state/elem_wsize stay
    // frozen until (c).
    for (int u : touched) {
      std::size_t w = 0;
      long d = 0;
      std::uint64_t h = var_hash(u);
      for (std::size_t r = 0; r < adj[u].size(); ++r) {
        int x = adj[u][r];
        if (state[x] != kLive) continue;
        adj[u][w++] = x;
        d += weight[x];
        h += var_hash(x);
      }
      adj[u].resize(w);
      std::sort(adj[u].begin(), adj[u].end());
      w = 0;
      for (std::size_t r = 0; r < elems[u].size(); ++r) {
        int el = elems[u][r];
        if (!elem_alive[el]) continue;
        elems[u][w++] = el;
        d += elem_wsize[el] - weight[u];  // u is always in its elements
        h += elem_hash(el);
      }
      elems[u].resize(w);
      std::sort(elems[u].begin(), elems[u].end());
      degree_slot[u] = d;
      hash_slot[u] = h;
    }

    // (c) Supervariable detection (sequential, ascending): merge u into the
    // smallest earlier variable with identical quotient-graph adjacency.
    // Hash collisions only cost an exact compare; the merge order is a pure
    // function of the pattern.
    buckets.clear();
    for (int u : touched) {
      if (state[u] != kLive) continue;
      std::vector<int>& bucket = buckets[hash_slot[u]];
      bool merged = false;
      for (int w : bucket) {
        if (state[w] != kLive) continue;
        if (elems[u] == elems[w] && same_adjacency(adj[u], u, adj[w], w)) {
          weight[w] += weight[u];
          absorbed[w].push_back(u);
          state[u] = kAbsorbed;
          // w's approximate degree counted u as an external neighbor.
          degree_slot[w] = std::max<long>(degree_slot[w] - weight[u], 0);
          merged = true;
          break;
        }
      }
      if (!merged) bucket.push_back(u);
    }

    // --- Requeue: deferred pivots keep their old degree; touched variables
    // get the refreshed one.  A degree-0 survivor has no live neighbors
    // outside its own supervariable (mass elimination): emit it now.
    for (auto [u, d] : stash) {
      if (state[u] == kLive && lists.degree(u) < 0) lists.insert(u, d);
    }
    for (int u : touched) {
      if (state[u] == kAbsorbed) {
        if (lists.degree(u) >= 0) lists.remove(u);
        continue;
      }
      if (state[u] != kLive) continue;
      const long d = degree_slot[u];
      if (d <= 0) {
        lists.remove(u);
        state[u] = kEliminated;
        emit(u);
      } else {
        lists.update(u, static_cast<int>(std::min<long>(d, n)));
      }
    }
  }

  return Permutation::from_old_positions(std::move(order));
}

Permutation approximate_minimum_degree_ata(const Pattern& a) {
  return approximate_minimum_degree(Pattern::ata(a));
}

}  // namespace plu::ordering
