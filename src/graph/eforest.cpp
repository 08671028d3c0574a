#include "graph/eforest.h"

#include <algorithm>
#include <cassert>

namespace plu::graph {

AncestorIndex::AncestorIndex(const Forest& f) {
  const int n = f.size();
  rank.assign(n, 0);
  low.assign(n, 0);
  std::vector<int> order = f.postorder();
  std::vector<int> sz = f.subtree_sizes();
  for (int i = 0; i < n; ++i) rank[order[i]] = i;
  for (int v = 0; v < n; ++v) low[v] = rank[v] - sz[v] + 1;
}

Forest lu_eforest(const Pattern& abar) {
  assert(abar.rows == abar.cols);
  const int n = abar.cols;
  Pattern rows = abar.transpose();  // column j of `rows` = row j of abar
  std::vector<int> parent(n, kNone);
  for (int j = 0; j < n; ++j) {
    // |Lbar_{*j}| > 1 <=> column j has an entry strictly below the diagonal.
    // Columns are sorted, so it suffices to look at the last entry.
    bool has_l = abar.col_size(j) > 0 && abar.col_end(j)[-1] > j;
    if (!has_l) continue;
    // parent(j) = first entry of row j strictly right of the diagonal.
    const int* b = rows.col_begin(j);
    const int* e = rows.col_end(j);
    const int* it = std::upper_bound(b, e, j);
    if (it != e) parent[j] = *it;
  }
  return Forest(std::move(parent));
}

std::vector<int> lbar_col_structure(const Pattern& abar, int j) {
  std::vector<int> out;
  for (const int* it = abar.col_begin(j); it != abar.col_end(j); ++it) {
    if (*it >= j) out.push_back(*it);
  }
  return out;
}

std::vector<int> lbar_row_structure(const Pattern& abar_rows, int i) {
  std::vector<int> out;
  for (const int* it = abar_rows.col_begin(i); it != abar_rows.col_end(i); ++it) {
    if (*it <= i) out.push_back(*it);
  }
  return out;
}

std::vector<int> ubar_col_structure(const Pattern& abar, int j) {
  std::vector<int> out;
  for (const int* it = abar.col_begin(j); it != abar.col_end(j); ++it) {
    if (*it <= j) out.push_back(*it);
  }
  return out;
}

bool verify_theorem1(const Pattern& abar, const Forest& ef) {
  const int n = abar.cols;
  for (int j = 0; j < n; ++j) {
    for (const int* it = abar.col_begin(j); it != abar.col_end(j); ++it) {
      int i = *it;
      if (i >= j) break;  // only strict U entries
      int k = ef.parent(i);
      while (k != kNone && k < j) {
        if (!abar.contains(k, j)) return false;
        k = ef.parent(k);
      }
    }
  }
  return true;
}

bool verify_theorem2(const Pattern& abar, const Forest& ef) {
  const int n = abar.cols;
  AncestorIndex idx(ef);
  // root_of[v]: the root of v's tree, computed by one upward sweep.
  std::vector<int> root_of(n);
  for (int v = n - 1; v >= 0; --v) {
    root_of[v] = (ef.parent(v) == kNone) ? v : root_of[ef.parent(v)];
  }
  for (int j = 0; j < n; ++j) {
    for (const int* it = abar.col_begin(j); it != abar.col_end(j); ++it) {
      int i = *it;
      if (i >= j) break;
      bool in_tj = idx.ancestor_or_self(j, i);
      bool in_earlier_tree = root_of[i] < j;
      if (!in_tj && !in_earlier_tree) return false;
    }
  }
  return true;
}

bool verify_row_branch(const Pattern& abar, const Forest& ef) {
  Pattern rows = abar.transpose();
  const int n = abar.cols;
  for (int i = 0; i < n; ++i) {
    std::vector<int> st = lbar_row_structure(rows, i);
    if (st.empty()) return false;  // zero-free diagonal expected
    // Expected: ancestor chain of the minimum element, truncated at i.
    std::vector<int> chain;
    int v = st.front();  // sorted ascending -> minimum
    while (v != kNone && v <= i) {
      chain.push_back(v);
      v = ef.parent(v);
    }
    if (chain != st) return false;
  }
  return true;
}

bool verify_candidate_disjointness(const Pattern& abar, const Forest& ef) {
  const int n = abar.cols;
  AncestorIndex idx(ef);
  // For each row r, the columns whose candidate set contains r must be
  // pairwise ancestor-comparable.  Comparability is transitive along a
  // label-sorted sequence, so adjacent pairs suffice.
  Pattern rows = abar.transpose();
  for (int r = 0; r < n; ++r) {
    const int* b = rows.col_begin(r);
    const int* e = rows.col_end(r);
    int prev = kNone;
    for (const int* it = b; it != e && *it < r; ++it) {
      if (prev != kNone && !idx.comparable(prev, *it)) return false;
      prev = *it;
    }
  }
  return true;
}

}  // namespace plu::graph
