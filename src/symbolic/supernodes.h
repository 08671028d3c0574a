// L/U supernode partitioning and amalgamation (Sections 1 and 3).
//
// A supernode is a maximal range of consecutive columns of Abar whose Lbar
// structures coincide below the range's dense diagonal block (the S+ "L/U
// supernode partitioning": the column partition is afterwards applied to the
// rows as well, cutting the matrix into submatrix blocks).
//
// Because supernodes occurring in practice are small ("2 or 3 columns"),
// amalgamation merges a child supernode into its parent when the merged
// block stays small and introduces few explicit zeros -- the classic relaxed
// supernode device, steered here by the LU eforest.
#pragma once

#include <vector>

#include "graph/forest.h"
#include "matrix/csc.h"
#include "runtime/parallel_for.h"

namespace plu::symbolic {

/// Contiguous partition of columns 0..n-1 into supernodes.
class SupernodePartition {
 public:
  SupernodePartition() = default;

  /// first_col: ascending starts, first_col.front() == 0; a sentinel n is
  /// appended internally.
  SupernodePartition(std::vector<int> first_col, int n);

  int count() const { return static_cast<int>(first_col_.size()) - 1; }
  int num_cols() const { return first_col_.back(); }
  int first(int s) const { return first_col_[s]; }
  int end(int s) const { return first_col_[s + 1]; }
  int width(int s) const { return end(s) - first(s); }
  int supernode_of(int col) const { return sup_of_col_[col]; }
  const std::vector<int>& boundaries() const { return first_col_; }

  /// Singleton partition (every column its own supernode).
  static SupernodePartition trivial(int n);

  bool valid() const;

 private:
  std::vector<int> first_col_;  // count()+1 entries, last == n
  std::vector<int> sup_of_col_;
};

/// Finds the exact supernodes of a filled pattern: columns j and j+1 share a
/// supernode iff struct(Lbar_{*,j}) \ {j} == struct(Lbar_{*,j+1}).
SupernodePartition find_supernodes(const Pattern& abar);

/// Team-parallel variant: the per-column boundary tests are independent
/// (each writes its own flag), so this is trivially bit-identical to the
/// sequential version.
SupernodePartition find_supernodes(const Pattern& abar, rt::Team& team);

struct AmalgamationOptions {
  /// Maximum number of columns in a merged supernode.
  int max_width = 24;
  /// Maximum fraction of explicit zeros the merged L block may contain.
  double max_zero_fraction = 0.25;
  /// Only merge a supernode into the next one when the eforest parent of its
  /// last column is the first column of the next (child->parent merges).
  bool require_parent_child = true;
};

/// Greedily merges adjacent supernodes subject to the options.  `eforest` is
/// the LU eforest of `abar` (column-level).
SupernodePartition amalgamate(const Pattern& abar, const graph::Forest& eforest,
                              const SupernodePartition& part,
                              const AmalgamationOptions& opt = {});

/// Forest-parallel variant: splits the supernode sequence at every
/// supernode whose last column is an eforest root and amalgamates the
/// segments concurrently.  With require_parent_child the sequential greedy
/// can never merge across such a split (the merge test needs
/// parent(last col) == next col, and a root has no parent), and each
/// segment's scan reads only its own columns, so the result is bit-identical
/// to the sequential greedy.  Without require_parent_child the split is
/// unsound and this falls back to the sequential path.
SupernodePartition amalgamate(const Pattern& abar, const graph::Forest& eforest,
                              const SupernodePartition& part,
                              const AmalgamationOptions& opt, rt::Team& team);

/// Statistics used by Table 3 and the A1 ablation.
struct SupernodeStats {
  int count = 0;          // number of supernodes (SN / SNPO in Table 3)
  double avg_width = 0.0;
  int max_width = 0;
};

SupernodeStats supernode_stats(const SupernodePartition& part);

}  // namespace plu::symbolic
