// Eforest-based compact storage of Abar (Section 2 of the paper).
//
// The structure characterization turns the whole filled pattern into two
// small annotation sets on the eforest (the "extended LU eforest" of
// Figure 1):
//   * Lbar rows: row i's structure is the ancestor chain of its FIRST
//     nonzero column f_i, truncated below i -- so one integer per row
//     suffices ("italics at the left of each node");
//   * Ubar columns: column j's structure is ancestor-closed (Theorem 1) and
//     confined to T[j] plus earlier trees (Theorem 2) -- so the LEAVES
//     (minimal elements) of the column subtree suffice ("italics at the
//     right of each node").
//
// build() extracts the annotations; reconstruct() expands them back to the
// full pattern.  Round-tripping is asserted by tests, and storage_entries()
// vs abar.nnz() quantifies the compression.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/forest.h"
#include "matrix/csc.h"

namespace plu::symbolic {

class CompactStorage {
 public:
  /// Builds from a filled pattern (zero-free diagonal).  The eforest is
  /// computed internally.
  static CompactStorage build(const Pattern& abar);

  /// Expands back to the full CSC pattern (diagonal included).
  Pattern reconstruct() const;

  const graph::Forest& eforest() const { return eforest_; }

  /// f_i: first nonzero column of Lbar row i.
  const std::vector<int>& row_first() const { return row_first_; }

  /// Leaves of the column subtree of Ubar column j (strictly above the
  /// diagonal; the diagonal is implicit).
  const std::vector<int>& col_leaves(int j) const { return col_leaves_[j]; }

  /// Integers stored by the compact scheme: n parents + n row-firsts +
  /// the leaf lists.
  std::size_t storage_entries() const;

  int size() const { return static_cast<int>(row_first_.size()); }

 private:
  graph::Forest eforest_;
  std::vector<int> row_first_;
  std::vector<std::vector<int>> col_leaves_;
};

}  // namespace plu::symbolic
