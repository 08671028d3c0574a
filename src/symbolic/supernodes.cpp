#include "symbolic/supernodes.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace plu::symbolic {

SupernodePartition::SupernodePartition(std::vector<int> first_col, int n)
    : first_col_(std::move(first_col)) {
  if (first_col_.empty() || first_col_.front() != 0) {
    throw std::invalid_argument("SupernodePartition: must start at column 0");
  }
  first_col_.push_back(n);
  for (std::size_t s = 0; s + 1 < first_col_.size(); ++s) {
    if (first_col_[s] >= first_col_[s + 1]) {
      throw std::invalid_argument("SupernodePartition: boundaries not increasing");
    }
  }
  sup_of_col_.assign(n, 0);
  for (int s = 0; s < count(); ++s) {
    for (int j = first(s); j < end(s); ++j) sup_of_col_[j] = s;
  }
}

SupernodePartition SupernodePartition::trivial(int n) {
  std::vector<int> starts(n);
  for (int j = 0; j < n; ++j) starts[j] = j;
  return SupernodePartition(std::move(starts), n);
}

bool SupernodePartition::valid() const {
  if (first_col_.size() < 2 || first_col_.front() != 0) return false;
  for (std::size_t s = 0; s + 1 < first_col_.size(); ++s) {
    if (first_col_[s] >= first_col_[s + 1]) return false;
  }
  return static_cast<int>(sup_of_col_.size()) == first_col_.back();
}

namespace {

// Same supernode iff struct(L col j) \ {j} == struct(L col j+1).
// Columns are sorted; the L part of column j starts at the diagonal.
bool columns_share_supernode(const Pattern& abar, int j) {
  const int* bj = std::lower_bound(abar.col_begin(j), abar.col_end(j), j);
  const int* ej = abar.col_end(j);
  const int* bn = std::lower_bound(abar.col_begin(j + 1), abar.col_end(j + 1), j + 1);
  const int* en = abar.col_end(j + 1);
  // Drop the diagonal j from column j's L part (it must be present).
  if (bj == ej || *bj != j) return false;
  ++bj;
  return (ej - bj == en - bn) && std::equal(bj, ej, bn);
}

/// L-structure of column j restricted to rows >= j (includes the diagonal).
std::pair<const int*, const int*> l_range(const Pattern& abar, int j) {
  const int* b = std::lower_bound(abar.col_begin(j), abar.col_end(j), j);
  return {b, abar.col_end(j)};
}

}  // namespace

SupernodePartition find_supernodes(const Pattern& abar) {
  const int n = abar.cols;
  std::vector<int> starts;
  starts.push_back(0);
  for (int j = 0; j + 1 < n; ++j) {
    if (!columns_share_supernode(abar, j)) starts.push_back(j + 1);
  }
  return SupernodePartition(std::move(starts), n);
}

SupernodePartition amalgamate(const Pattern& abar, const graph::Forest& eforest,
                              const SupernodePartition& part,
                              const AmalgamationOptions& opt) {
  const int n = abar.cols;
  assert(part.num_cols() == n);
  const int s_end = part.count();
  std::vector<int> starts;
  std::vector<int> cur_union;  // union of L structures of the current group
  std::vector<int> trial;
  long cur_entries = 0;  // true entries in the group's L region

  int s = 0;
  while (s < s_end) {
    // Start a new group at supernode s.
    int c0 = part.first(s);
    int c1 = part.end(s);
    starts.push_back(c0);
    cur_union.clear();
    cur_entries = 0;
    for (int j = c0; j < c1; ++j) {
      auto [b, e] = l_range(abar, j);
      cur_entries += e - b;
      trial.clear();
      std::set_union(cur_union.begin(), cur_union.end(), b, e,
                     std::back_inserter(trial));
      cur_union.swap(trial);
    }
    int t = s + 1;
    while (t < s_end) {
      int t0 = part.first(t);
      int t1 = part.end(t);
      if (t1 - c0 > opt.max_width) break;
      if (opt.require_parent_child &&
          eforest.parent(t0 - 1) != t0) {
        break;
      }
      // Trial union and zero-fraction of the merged group [c0, t1).
      std::vector<int> u = cur_union;
      long entries = cur_entries;
      for (int j = t0; j < t1; ++j) {
        auto [b, e] = l_range(abar, j);
        entries += e - b;
        trial.clear();
        std::set_union(u.begin(), u.end(), b, e, std::back_inserter(trial));
        u.swap(trial);
      }
      // Stored cells: column j of the merged block holds |{r in u : r >= j}|.
      long stored = 0;
      for (int j = c0; j < t1; ++j) {
        stored += u.end() - std::lower_bound(u.begin(), u.end(), j);
      }
      double zero_fraction =
          stored > 0 ? static_cast<double>(stored - entries) / stored : 0.0;
      if (zero_fraction > opt.max_zero_fraction) break;
      // Accept the merge.
      cur_union.swap(u);
      cur_entries = entries;
      c1 = t1;
      ++t;
    }
    s = t;
  }
  if (starts.empty()) starts.push_back(0);
  return SupernodePartition(std::move(starts), n);
}

SupernodeStats supernode_stats(const SupernodePartition& part) {
  SupernodeStats st;
  st.count = part.count();
  long total = 0;
  for (int s = 0; s < part.count(); ++s) {
    total += part.width(s);
    st.max_width = std::max(st.max_width, part.width(s));
  }
  st.avg_width = part.count() > 0 ? static_cast<double>(total) / part.count() : 0.0;
  return st;
}

}  // namespace plu::symbolic
