// The LU elimination forest (Definition 1 of the paper, after Shen, Jiao &
// Yang's S+): for the statically-filled matrix Abar = Lbar + Ubar - I,
//
//   parent(j) = min{ r > j : ubar_{jr} != 0 }   provided |Lbar_{*j}| > 1,
//
// i.e. a column with off-diagonal L entries points to the first off-diagonal
// entry of its U row; columns whose L part is just the diagonal are roots.
//
// Section 2 of the paper characterizes the factor structures in terms of
// this forest:
//   * every row i of Lbar is a "branch": the ancestor chain of the row's
//     first nonzero column, truncated below i (ref. [7]);
//   * Theorem 1: ubar_{ij} != 0 implies ubar_{kj} != 0 for every ancestor k
//     of i with k < j (U columns are ancestor-closed below their index);
//   * Theorem 2: the column structure of Ubar column j lives in T[j] plus
//     the trees rooted at roots k < j.
//
// The verify_* functions check those statements exhaustively on a given
// structure; they back the property-based tests and double as executable
// documentation of the theory.
#pragma once

#include "graph/forest.h"
#include "matrix/csc.h"

namespace plu::graph {

/// Postorder interval labels for O(1) ancestor queries on a forest:
/// u is an ancestor-or-self of v iff low[u] <= rank[v] <= rank[u].
struct AncestorIndex {
  std::vector<int> rank;
  std::vector<int> low;

  explicit AncestorIndex(const Forest& f);

  bool ancestor_or_self(int u, int v) const {
    return low[u] <= rank[v] && rank[v] <= rank[u];
  }
  bool comparable(int u, int v) const {
    return ancestor_or_self(u, v) || ancestor_or_self(v, u);
  }
};

/// Builds the LU eforest of a filled pattern (square, zero-free diagonal).
Forest lu_eforest(const Pattern& abar);

/// Column structure of Lbar column j: rows i >= j with abar(i, j) present.
/// This is the pivot-candidate set R_j of column j.
std::vector<int> lbar_col_structure(const Pattern& abar, int j);

/// Row structure of Lbar row i: columns j <= i with abar(i, j) present
/// (paper notation T_r[i]).  `abar_rows` is abar.transpose().
std::vector<int> lbar_row_structure(const Pattern& abar_rows, int i);

/// Column structure of Ubar column j: rows i <= j with abar(i, j) present
/// (paper notation T_c[j]).
std::vector<int> ubar_col_structure(const Pattern& abar, int j);

/// Theorem 1: for every ubar_{ij} != 0 and every ancestor k of i with k < j,
/// ubar_{kj} != 0.
bool verify_theorem1(const Pattern& abar, const Forest& ef);

/// Theorem 2: every i with ubar_{ij} != 0 belongs to T[j] or to T[k] for
/// some root k < j.
bool verify_theorem2(const Pattern& abar, const Forest& ef);

/// Row-branch characterization: for every row i, the L row structure equals
/// the ancestor chain of its minimum element truncated below i.
bool verify_row_branch(const Pattern& abar, const Forest& ef);

/// Disjointness (the basis of the new task graph's missing edges): for any
/// two nodes neither of which is an ancestor of the other, the candidate
/// sets lbar_col_structure() minus the diagonal are disjoint.
/// O(sum of candidate set sizes) via a claimed-by mark per row.
bool verify_candidate_disjointness(const Pattern& abar, const Forest& ef);

}  // namespace plu::graph
