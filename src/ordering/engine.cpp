#include "ordering/engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "graph/etree.h"
#include "ordering/amd.h"
#include "ordering/minimum_degree.h"
#include "ordering/nested_dissection.h"
#include "ordering/rcm.h"

namespace plu::ordering {

namespace {

class NaturalEngine final : public OrderingEngine {
 public:
  std::string name() const override { return "natural"; }
  Permutation order(const Pattern& g) const override {
    return Permutation(g.cols);
  }
};

class MinimumDegreeEngine final : public OrderingEngine {
 public:
  std::string name() const override { return "minimum-degree"; }
  Permutation order(const Pattern& g) const override {
    return minimum_degree_guarded(g);
  }
};

class AmdEngine final : public OrderingEngine {
 public:
  std::string name() const override { return "amd"; }
  Permutation order(const Pattern& g) const override {
    return approximate_minimum_degree(g);
  }
};

class RcmEngine final : public OrderingEngine {
 public:
  std::string name() const override { return "rcm"; }
  Permutation order(const Pattern& g) const override {
    return reverse_cuthill_mckee(g);
  }
};

class NestedDissectionEngine final : public OrderingEngine {
 public:
  std::string name() const override { return "nested-dissection"; }
  Permutation order(const Pattern& g) const override {
    return nested_dissection(g);
  }
};

}  // namespace

const OrderingEngine& engine_for(Method m) {
  static const NaturalEngine natural;
  static const MinimumDegreeEngine md;
  static const AmdEngine amd;
  static const RcmEngine rcm;
  static const NestedDissectionEngine nd;
  switch (m) {
    case Method::kNatural:
      return natural;
    case Method::kMinimumDegreeAtA:
      return md;
    case Method::kAmdAtA:
      return amd;
    case Method::kRcmAtA:
      return rcm;
    case Method::kNestedDissectionAtA:
      return nd;
    case Method::kAuto:
      break;  // must be resolved by select_method first
  }
  assert(m != Method::kAuto && "engine_for: resolve kAuto via select_method");
  return md;
}

StructuralFeatures compute_features(const Pattern& a) {
  StructuralFeatures f;
  f.n = a.cols;
  f.nnz = a.nnz();
  if (f.n == 0) return f;
  long band = 0;
  for (int j = 0; j < a.cols; ++j) {
    const int deg = static_cast<int>(a.col_end(j) - a.col_begin(j));
    f.max_degree = std::max(f.max_degree, deg);
    for (const int* it = a.col_begin(j); it != a.col_end(j); ++it) {
      band = std::max(band, static_cast<long>(std::abs(*it - j)));
    }
  }
  f.density = static_cast<double>(f.nnz) / (static_cast<double>(f.n) * f.n);
  f.avg_degree = static_cast<double>(f.nnz) / f.n;
  f.degree_skew = f.avg_degree > 0.0 ? f.max_degree / f.avg_degree : 0.0;
  f.bandwidth_ratio = static_cast<double>(band) / f.n;
  return f;
}

Method select_method(const StructuralFeatures& f) {
  // Regular 3-D-stencil-like patterns -- degree near the 7-point (or denser,
  // multi-field) stencil's, and no column far above the average: nested
  // dissection's separators beat minimum degree's fill there, at a fraction
  // of its ordering time.  Everything else -- small orders, 2-D meshes and
  // thinned grids (average degree under the bar), random and hub-heavy
  // profiles (skewed degrees) -- keeps guarded exact minimum degree, whose
  // hub guard routes hub-heavy graphs to AMD internally.  DESIGN.md section
  // 15 has the measurements behind the three thresholds.
  constexpr int kSmallOrder = 256;
  constexpr double kMinMeshDegree = 5.5;
  constexpr double kMaxMeshSkew = 1.2;
  if (f.n > kSmallOrder && f.avg_degree >= kMinMeshDegree &&
      f.degree_skew <= kMaxMeshSkew) {
    return Method::kNestedDissectionAtA;
  }
  return Method::kMinimumDegreeAtA;
}

Method runner_up(Method chosen) {
  return chosen == Method::kNestedDissectionAtA
             ? Method::kMinimumDegreeAtA
             : Method::kNestedDissectionAtA;
}

long cholesky_fill(const Pattern& g, const Permutation& p) {
  assert(g.rows == g.cols);
  const int n = g.cols;
  if (n == 0) return 0;
  const Pattern perm = Pattern::symmetrized(g.permuted(p, p));
  const graph::Forest etree = graph::elimination_tree(perm);
  // Row-subtree traversal (Liu): row i of L is the union of the etree paths
  // from each a_ik (k < i) up toward i; each L entry is visited once.
  std::vector<int> mark(n, -1);
  long fill = n;  // diagonal
  for (int i = 0; i < n; ++i) {
    mark[i] = i;
    for (const int* it = perm.col_begin(i); it != perm.col_end(i); ++it) {
      int j = *it;
      if (j >= i) continue;
      while (j != graph::kNone && j < i && mark[j] != i) {
        mark[j] = i;
        ++fill;
        j = etree.parent(j);
      }
    }
  }
  return fill;
}

}  // namespace plu::ordering
