// Pluggable ordering engines and the selection policy behind Method::kAuto.
//
// SPRAL's shape (SNIPPETS.md snippet 1): every fill-reducing ordering sits
// behind one interface feeding the rest of the analysis, so the pipeline
// never cares WHICH engine ran -- only the policy does.  The policy picks by
// cheap structural features of A (order, average degree, degree skew),
// optionally breaking close calls with a quick symbolic dry-run
// (an exact Cholesky fill count on the permuted A^T A graph, self-contained
// here because the ordering tier links BELOW the symbolic tier).  The
// decision -- requested vs chosen method, the features, dry-run fill -- is
// recorded in ordering::Decision and surfaced through AnalysisReport /
// FactorizationReport.
#pragma once

#include <string>

#include "matrix/csc.h"
#include "matrix/permutation.h"
#include "ordering/ordering.h"

namespace plu::ordering {

/// One fill-reducing ordering engine.  `order` receives the SYMMETRIC
/// adjacency graph to order (the A^T A pattern in the LU pipeline).
class OrderingEngine {
 public:
  virtual ~OrderingEngine() = default;
  virtual std::string name() const = 0;
  virtual Permutation order(const Pattern& g) const = 0;
};

/// The engine implementing a concrete method (never kAuto -- resolve with
/// select_method first).  Engines are stateless singletons.
const OrderingEngine& engine_for(Method m);

/// O(nnz) structural features of the INPUT pattern A, the policy's evidence.
StructuralFeatures compute_features(const Pattern& a);

/// The feature-driven policy behind Method::kAuto (the library default).
/// Returns one of two methods: nested dissection for regular
/// 3-D-stencil-like patterns (n > 256, average degree >= 5.5, degree skew
/// <= 1.2), guarded exact minimum degree for everything else.
Method select_method(const StructuralFeatures& f);

/// The policy's runner-up for `chosen` -- the dry-run's comparison
/// candidate: minimum degree for nested dissection, nested dissection for
/// anything else.
Method runner_up(Method chosen);

/// Exact Cholesky fill of the symmetric graph `g` under ordering `p`:
/// |L| including the diagonal, counted in O(|L|) by row-subtree traversal of
/// the elimination tree.  The dry-run metric for comparing candidate
/// orderings; cheaper than a symbolic factorization and monotone with it.
long cholesky_fill(const Pattern& g, const Permutation& p);

}  // namespace plu::ordering
