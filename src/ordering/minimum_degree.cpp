#include "ordering/minimum_degree.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "ordering/amd.h"
#include "ordering/degree_lists.h"

namespace plu::ordering {

using detail::DegreeLists;

Permutation minimum_degree(const Pattern& symmetric_pattern) {
  assert(symmetric_pattern.rows == symmetric_pattern.cols);
  const int n = symmetric_pattern.cols;
  const Pattern g = Pattern::symmetrized(symmetric_pattern);

  // Quotient graph state.  The plain edges of v are g's column v, never
  // pruned: their order fixes the boundary order of v's element, which
  // fixes the order variables are touched in, which breaks degree ties.
  // own[v] (packed in g's index layout, own_len[v] long) is the part of
  // them that no live element of v reaches.  Invariant: own[v] holds only
  // live variables and is disjoint from every live element of v.
  std::vector<int> own(g.idx);
  std::vector<int> own_len(n, 0);
  std::vector<std::vector<int>> var_elems(n); // elements adjacent to variable
  std::vector<std::vector<int>> elem_vars;    // element boundary lists
  std::vector<char> eliminated(n, 0);
  std::vector<char> elem_alive;

  for (int v = 0; v < n; ++v) {
    int* o = own.data() + g.ptr[v];
    for (const int* it = g.col_begin(v); it != g.col_end(v); ++it) {
      if (*it != v) o[own_len[v]++] = *it;
    }
  }

  DegreeLists lists(n, n);
  for (int v = 0; v < n; ++v) lists.insert(v, own_len[v]);

  std::vector<int> order;
  order.reserve(n);
  std::vector<int> mark(n, -1);
  int stamp = 0;
  std::vector<int> boundary;

  // Multiple elimination (GENMMD-style): within one pass, eliminate every
  // minimum-degree variable that is independent of the variables already
  // eliminated in the pass, and only then refresh the degrees of the touched
  // boundary.  Besides being faster, this produces BUSHY elimination trees
  // (independent nodes of equal degree become siblings, not a chain), which
  // is what gives the paper's task graphs their tree parallelism.
  std::vector<int> pass_mark(n, -1);
  int pass_id = 0;
  std::vector<int> touched;
  std::vector<int> new_elems(n, 0);  // new elements of a touched variable
  std::vector<int> fresh(n, 0);      // refreshed degree of a touched variable
  std::vector<std::pair<int, int>> stash;  // popped but deferred (node, degree)
  // |e \ N| of old element e while new element N is refreshed (ext_tag[e]
  // names the N it was counted for).
  std::vector<int> ext;
  std::vector<int> ext_tag;
  int ext_id = 0;

  int eliminated_count = 0;
  while (eliminated_count < n) {
    ++pass_id;
    touched.clear();
    stash.clear();
    const int first_new = static_cast<int>(elem_vars.size());
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
      for (const int* it = g.col_begin(v); it != g.col_end(v); ++it) {
        const int x = *it;
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
        std::vector<int>().swap(elem_vars[e]);
      }
      if (boundary.empty()) continue;

      int eid = static_cast<int>(elem_vars.size());
      elem_vars.push_back(boundary);
      elem_alive.push_back(1);
      ext.push_back(0);
      ext_tag.push_back(0);
      for (int u : boundary) {
        var_elems[u].push_back(eid);
        // The new element now reaches every boundary member, and v is gone:
        // drop both from own[u] (both carry this stamp).
        int* o = own.data() + g.ptr[u];
        int w = 0;
        for (int r = 0; r < own_len[u]; ++r) {
          if (mark[o[r]] != stamp) o[w++] = o[r];
        }
        own_len[u] = w;
        if (pass_mark[u] != pass_id) {
          pass_mark[u] = pass_id;
          touched.push_back(u);
          new_elems[u] = 1;
        } else {
          ++new_elems[u];
        }
      }
    }
    // Reinsert deferred variables with their old degree (the touched ones
    // among them are updated below, like every touched variable).
    for (auto [u, d] : stash) {
      if (!eliminated[u]) lists.insert(u, d);
    }

    // Exact external degrees of the touched variables.  A live element
    // never holds an eliminated variable (eliminating one absorbs it), so
    // |e| is elem_vars[e].size().  Per new element N: count |e \ N| for each
    // old element e of N's members.  A member u of N alone then has
    //   deg(u) = |N| - 1 + |own[u]| (+ |e \ N| if u has one old element e);
    // with more old elements, a marked scan of them (N's members skipped)
    // replaces the last term.
    for (int nid = first_new; nid < static_cast<int>(elem_vars.size());
         ++nid) {
      const std::vector<int>& nv = elem_vars[nid];
      ++ext_id;
      for (int u : nv) {
        std::vector<int>& ve = var_elems[u];
        std::size_t w = 0;
        for (std::size_t r = 0; r < ve.size(); ++r) {
          const int e = ve[r];
          if (!elem_alive[e]) continue;
          ve[w++] = e;
          if (e >= first_new) continue;
          if (ext_tag[e] != ext_id) {
            ext_tag[e] = ext_id;
            ext[e] = static_cast<int>(elem_vars[e].size());
          }
          --ext[e];
        }
        ve.resize(w);
      }
      int n_stamp = -1;
      for (int u : nv) {
        if (new_elems[u] > 1) continue;  // refreshed below
        int deg = static_cast<int>(nv.size()) - 1 + own_len[u];
        int olds = 0;
        int last_old = -1;
        for (int e : var_elems[u]) {
          if (e < first_new) {
            ++olds;
            last_old = e;
          }
        }
        if (olds == 1) {
          deg += ext[last_old];
        } else if (olds > 1) {
          if (n_stamp == -1) {
            n_stamp = ++stamp;
            for (int x : nv) mark[x] = n_stamp;
          }
          ++stamp;
          for (int e : var_elems[u]) {
            if (e >= first_new) continue;
            for (int x : elem_vars[e]) {
              if (mark[x] != n_stamp && mark[x] != stamp) {
                mark[x] = stamp;
                ++deg;
              }
            }
          }
        }
        fresh[u] = deg;
      }
    }
    // Members of two or more new elements: mark every live element of u
    // (own[u] is disjoint from all of them and counted whole).
    for (int u : touched) {
      if (new_elems[u] < 2) continue;
      ++stamp;
      mark[u] = stamp;
      int deg = own_len[u];
      for (int e : var_elems[u]) {
        for (int x : elem_vars[e]) {
          if (mark[x] != stamp) {
            mark[x] = stamp;
            ++deg;
          }
        }
      }
      fresh[u] = deg;
    }
    for (int u : touched) lists.update(u, fresh[u]);
  }

  return Permutation::from_old_positions(std::move(order));
}

Permutation minimum_degree_guarded(const Pattern& symmetric_pattern,
                                   rt::Team* team) {
  if (hub_heavy(symmetric_pattern)) {
    return approximate_minimum_degree(symmetric_pattern, team);
  }
  return minimum_degree(symmetric_pattern);
}

Permutation minimum_degree_ata(const Pattern& a) {
  return minimum_degree_guarded(Pattern::ata(a));
}

}  // namespace plu::ordering
