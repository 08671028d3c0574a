// Block structure of Abar under a supernode partition (Section 4's B_kj).
//
// The column partition is applied to the rows as well, cutting Abar into
// N x N submatrix blocks; block (i, j) is structurally nonzero when any
// entry of Abar falls in it.  The numeric kernels need the PAIRWISE closure
// property on this pattern --
//     (i,k) and (k,j) present with k < min(i,j)  =>  (i,j) present
// -- so that every gemm target block exists and deferred pivot application
// in Update(k, j) always finds its rows.  For the exact supernode partition
// the raw pattern is already closed (the block shadow of the entry-level
// George-Ng invariant; tests assert it); amalgamation can break it, so a
// right-looking closure pass adds the missing blocks, reported in
// `extra_blocks_from_closure`.  (A full block-level George-Ng pass would
// also make independent-subtree candidate sets disjoint at BLOCK level, but
// it pads the structure far beyond what S+ stores -- measured at 4-10x the
// flops on minimum-degree-ordered matrices.  Disjointness is needed only
// row by row: the 1-D updates write just the structural rows of each panel
// (symbolic::ColumnPlan::row_runs), whose writers form eforest chains on
// every structure, so no update needs a lock.)
#pragma once

#include "graph/forest.h"
#include "matrix/csc.h"
#include "runtime/parallel_for.h"
#include "symbolic/supernodes.h"

namespace plu::symbolic {

struct BlockStructure {
  SupernodePartition part;
  /// N x N block pattern after block-level closure (diagonal blocks always
  /// present).  Column k of this pattern lists the row blocks of block
  /// column k, L and U parts together.
  Pattern bpattern;
  /// LU eforest of `bpattern` -- the T(B) of Section 4, driving the task
  /// dependence graph.
  graph::Forest beforest;
  /// Blocks added by the block-level closure pass.
  long extra_blocks_from_closure = 0;

  int num_blocks() const { return part.count(); }

  /// Row blocks i > k of block column k (the L part, below the diagonal).
  std::vector<int> l_blocks(int k) const;
  /// Column blocks j > k of block row k (the U part, right of the diagonal).
  /// Requires bpattern_rows (precomputed transpose).
  std::vector<int> u_blocks(int k) const;

  /// Transposed block pattern, built once on construction.
  Pattern bpattern_rows;
};

/// Builds the block structure from the filled pattern and a partition.
/// `apply_closure` exists so tests can observe the raw pattern.
BlockStructure build_block_structure(const Pattern& abar,
                                     const SupernodePartition& part,
                                     bool apply_closure = true);

/// Team-parallel variant; bit-identical to the sequential build (the
/// parallel loops inside block_pattern / pairwise_closure are write-disjoint
/// or commutative; beforest stays sequential).
BlockStructure build_block_structure(const Pattern& abar,
                                     const SupernodePartition& part,
                                     bool apply_closure, rt::Team& team);

/// Raw (pre-closure) block pattern of abar under the partition.
Pattern block_pattern(const Pattern& abar, const SupernodePartition& part);

/// Team-parallel variant: block columns are independent (per-lane mark
/// arrays, owned output slots), so trivially bit-identical.
Pattern block_pattern(const Pattern& abar, const SupernodePartition& part,
                      rt::Team& team);

/// Right-looking pairwise closure: one ascending pass adding (i,j) whenever
/// (i,k) and (k,j) are present with k < min(i,j).  Returns the closed
/// pattern; `added` (if non-null) receives the number of new blocks.
Pattern pairwise_closure(const Pattern& bpattern, long* added = nullptr);

/// Team-parallel variant: the ascending k sweep stays sequential; within a
/// step the per-U-entry column updates are fanned out (column bit-words are
/// lane-owned, row bit-words shared via commutative atomic ORs; row k and
/// column k are never written during step k), so the closed pattern is
/// bit-identical to the sequential pass.
Pattern pairwise_closure(const Pattern& bpattern, rt::Team& team,
                         long* added = nullptr);

/// True if the block pattern satisfies the closure property:
/// (i,k) and (k,j) present with k < i, k < j implies (i,j) present.
bool block_closure_holds(const Pattern& bpattern);

}  // namespace plu::symbolic
