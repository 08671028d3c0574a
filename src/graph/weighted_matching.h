// Maximum-product transversal with scaling (the MC64 job: Duff & Koster,
// "On algorithms for permuting large entries to the diagonal").
//
// Where the plain transversal (transversal.h) finds ANY zero-free diagonal,
// this finds the row permutation maximizing the PRODUCT of diagonal
// magnitudes, plus row/column scalings derived from the dual solution that
// make every permuted-scaled entry at most 1 in magnitude with exact 1s on
// the diagonal (an "I-matrix").  For a static-pivoting factorization this
// is the standard defense: big entries start on the diagonal, so restricted
// or threshold pivoting rarely meets a bad pivot.
//
// Algorithm: successive shortest augmenting paths with potentials (Dijkstra
// per column) on costs c(i,j) = log(max_r |a_rj|) - log|a_ij| >= 0; the
// optimal potentials are the log-scalings.
#pragma once

#include <optional>
#include <vector>

#include "matrix/csc.h"

namespace plu::graph {

struct WeightedMatching {
  /// Row permutation in gather form: new row i is old row row_perm.old_of(i),
  /// placing the max-product matching on the diagonal.
  Permutation row_perm;
  /// Scalings: |row_scale[i] * a(i, j) * col_scale[j]| <= 1 (up to roundoff)
  /// with equality on the matched entries.  Indexed by ORIGINAL row/column.
  std::vector<double> row_scale;
  std::vector<double> col_scale;
  /// log |prod of matched entries| (the maximized objective).
  double log_product = 0.0;
};

/// Computes the matching; nullopt when the matrix is structurally singular
/// (entries with value exactly 0 are treated as absent).  Throws
/// std::invalid_argument unless the matrix is square.
std::optional<WeightedMatching> max_product_transversal(const CscMatrix& a);

}  // namespace plu::graph
