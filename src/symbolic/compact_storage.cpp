#include "symbolic/compact_storage.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "graph/eforest.h"

namespace plu::symbolic {

CompactStorage CompactStorage::build(const Pattern& abar) {
  if (abar.rows != abar.cols) {
    throw std::invalid_argument("CompactStorage: square pattern required");
  }
  const int n = abar.cols;
  CompactStorage cs;
  cs.eforest_ = graph::lu_eforest(abar);
  cs.row_first_.assign(n, -1);
  cs.col_leaves_.assign(n, {});

  Pattern rows = abar.transpose();
  for (int i = 0; i < n; ++i) {
    // First nonzero of row i at or left of the diagonal.
    if (rows.col_size(i) == 0 || rows.col_begin(i)[0] > i) {
      throw std::invalid_argument("CompactStorage: zero-free diagonal required");
    }
    cs.row_first_[i] = rows.col_begin(i)[0];
  }
  // U column j: minimal entries, i.e. entries i < j none of whose eforest
  // children is also an entry of column j.
  std::vector<char> in_col(n, 0);
  for (int j = 0; j < n; ++j) {
    const int* b = abar.col_begin(j);
    const int* e = std::lower_bound(b, abar.col_end(j), j);  // strict U part
    for (const int* it = b; it != e; ++it) in_col[*it] = 1;
    for (const int* it = b; it != e; ++it) {
      bool minimal = true;
      for (int c : cs.eforest_.children(*it)) {
        if (in_col[c]) {
          minimal = false;
          break;
        }
      }
      if (minimal) cs.col_leaves_[j].push_back(*it);
    }
    for (const int* it = b; it != e; ++it) in_col[*it] = 0;
  }
  return cs;
}

Pattern CompactStorage::reconstruct() const {
  const int n = size();
  // Build by rows for L, by columns for U, then merge.
  std::vector<std::vector<int>> cols(n);
  for (int j = 0; j < n; ++j) cols[j].push_back(j);  // diagonal
  // L rows: ancestor chain of row_first_[i], truncated below i.
  for (int i = 0; i < n; ++i) {
    int v = row_first_[i];
    while (v != graph::kNone && v < i) {
      cols[v].push_back(i);  // entry (i, v) in Lbar
      v = eforest_.parent(v);
    }
  }
  // U columns: climb from each leaf until reaching j or leaving the range.
  for (int j = 0; j < n; ++j) {
    for (int leaf : col_leaves_[j]) {
      int v = leaf;
      while (v != graph::kNone && v < j) {
        cols[j].push_back(v);  // entry (v, j) in Ubar
        v = eforest_.parent(v);
      }
    }
  }
  Pattern p(n, n);
  for (int j = 0; j < n; ++j) {
    std::sort(cols[j].begin(), cols[j].end());
    cols[j].erase(std::unique(cols[j].begin(), cols[j].end()), cols[j].end());
    p.idx.insert(p.idx.end(), cols[j].begin(), cols[j].end());
    p.ptr[j + 1] = static_cast<int>(p.idx.size());
  }
  return p;
}

std::size_t CompactStorage::storage_entries() const {
  std::size_t total = 2 * row_first_.size();  // parents + row firsts
  for (const auto& l : col_leaves_) total += l.size();
  return total;
}

}  // namespace plu::symbolic
