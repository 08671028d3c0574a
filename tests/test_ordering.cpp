// Orderings: validity, fill reduction of minimum degree and AMD, bandwidth
// reduction of RCM, nested-dissection separator/fallback behavior, the
// policy dispatcher, the parallel-AMD determinism gate (bit-identical
// orderings at 1/2/4/8 lanes -- run under TSan by the CI sanitize job), and
// the exact-MD equivalence gate against the full-rescan oracle in
// md_reference.h (run under ASan+UBSan by CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/report.h"
#include "core/sparse_lu.h"
#include "graph/transversal.h"
#include "matrix/named_matrices.h"
#include "ordering/amd.h"
#include "ordering/engine.h"
#include "ordering/minimum_degree.h"
#include "ordering/nested_dissection.h"
#include "ordering/ordering.h"
#include "ordering/rcm.h"
#include "symbolic/static_symbolic.h"
#include "md_reference.h"
#include "test_helpers.h"

namespace plu::ordering {
namespace {

long symbolic_fill(const Pattern& a, const Permutation& colperm) {
  Pattern a1 = a.permuted(Permutation(a.rows), colperm);
  auto rp = graph::zero_free_diagonal_permutation(a1);
  if (!rp) return -1;
  Pattern fixed = a1.permuted(*rp, Permutation(a.cols));
  return symbolic::static_symbolic_factorization(fixed).abar.nnz();
}

TEST(MinimumDegree, ProducesValidPermutation) {
  for (const CscMatrix& a : plu::test::small_matrices()) {
    Permutation p = minimum_degree_ata(a.pattern());
    EXPECT_EQ(p.size(), a.cols());
    EXPECT_TRUE(Permutation::is_valid(p.old_positions()));
  }
}

TEST(MinimumDegree, ReducesFillVsNaturalOnGrids) {
  CscMatrix a = gen::grid2d(14, 14, {});
  long natural = symbolic_fill(a.pattern(), Permutation(a.cols()));
  long md = symbolic_fill(a.pattern(), minimum_degree_ata(a.pattern()));
  EXPECT_LT(md, natural);
  // On a 2-D grid the gap is substantial (nested-dissection-like gains).
  EXPECT_LT(static_cast<double>(md), 0.8 * natural);
}

TEST(MinimumDegree, OptimalOnTridiagonal) {
  // Tridiagonal: natural order is already fill-free; MD must not do worse
  // than a no-fill elimination.
  CscMatrix a = gen::banded(40, {-1, 1}, 1.0, 0.7, 3);
  Pattern ata = Pattern::ata(a.pattern());
  Permutation p = minimum_degree(ata);
  EXPECT_TRUE(Permutation::is_valid(p.old_positions()));
  // A^T A of tridiagonal is pentadiagonal; fill-minimizing order keeps the
  // factor within ~2x of the input.
  long fill = symbolic_fill(a.pattern(), p);
  EXPECT_LT(fill, 4l * ata.nnz());
}

TEST(MinimumDegree, HandlesDenseRowGracefully) {
  // One dense column/row (arrowhead): MD should defer the hub to last.
  CooMatrix coo(20, 20);
  for (int i = 0; i < 20; ++i) coo.add(i, i, 1.0);
  for (int i = 1; i < 20; ++i) {
    coo.add(0, i, 1.0);
    coo.add(i, 0, 1.0);
  }
  Pattern p = coo.to_csc().pattern();
  Permutation perm = minimum_degree(p);
  // The hub must be deferred to the very end, modulo the final degree tie
  // with the last leaf.
  EXPECT_TRUE(perm.old_of(19) == 0 || perm.old_of(18) == 0);
}

TEST(MinimumDegree, EmptyAndSingleton) {
  Pattern empty(0, 0);
  EXPECT_EQ(minimum_degree(empty).size(), 0);
  CooMatrix coo(1, 1);
  coo.add(0, 0, 1.0);
  EXPECT_EQ(minimum_degree(coo.to_csc().pattern()).size(), 1);
}

long bandwidth(const Pattern& p, const Permutation& perm) {
  Pattern q = p.permuted(perm, perm);
  long bw = 0;
  for (int j = 0; j < q.cols; ++j) {
    for (const int* it = q.col_begin(j); it != q.col_end(j); ++it) {
      bw = std::max(bw, static_cast<long>(std::abs(*it - j)));
    }
  }
  return bw;
}

TEST(Rcm, ReducesBandwidthOfShuffledGrid) {
  CscMatrix a = gen::grid2d(12, 12, {});
  CscMatrix shuffled = gen::random_symmetric_permutation(a, 5);
  Pattern p = Pattern::symmetrized(shuffled.pattern());
  Permutation r = reverse_cuthill_mckee(p);
  EXPECT_TRUE(Permutation::is_valid(r.old_positions()));
  EXPECT_LT(bandwidth(p, r), bandwidth(p, Permutation(p.cols)));
}

TEST(Rcm, CoversDisconnectedComponents) {
  CooMatrix coo(8, 8);
  for (int i = 0; i < 8; ++i) coo.add(i, i, 1.0);
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  coo.add(5, 6, 1.0);
  coo.add(6, 5, 1.0);
  Permutation r = reverse_cuthill_mckee(coo.to_csc().pattern());
  EXPECT_TRUE(Permutation::is_valid(r.old_positions()));
  EXPECT_EQ(r.size(), 8);
}

TEST(Dispatcher, AllMethodsValidAndNamed) {
  CscMatrix a = gen::grid2d(8, 8, {});
  for (Method m : {Method::kNatural, Method::kMinimumDegreeAtA, Method::kAmdAtA,
                   Method::kRcmAtA, Method::kNestedDissectionAtA,
                   Method::kAuto}) {
    Permutation p = compute_column_ordering(a.pattern(), m);
    EXPECT_TRUE(Permutation::is_valid(p.old_positions())) << to_string(m);
    EXPECT_FALSE(to_string(m).empty());
  }
  EXPECT_TRUE(compute_column_ordering(a.pattern(), Method::kNatural).is_identity());
}

TEST(Dispatcher, ParsesMethodNames) {
  Method m = Method::kNatural;
  EXPECT_TRUE(parse_method("amd", &m));
  EXPECT_EQ(m, Method::kAmdAtA);
  EXPECT_TRUE(parse_method("auto", &m));
  EXPECT_EQ(m, Method::kAuto);
  EXPECT_TRUE(parse_method("md", &m));
  EXPECT_EQ(m, Method::kMinimumDegreeAtA);
  EXPECT_TRUE(parse_method("mindeg", &m));
  EXPECT_EQ(m, Method::kMinimumDegreeAtA);
  EXPECT_TRUE(parse_method("nd", &m));
  EXPECT_EQ(m, Method::kNestedDissectionAtA);
  EXPECT_FALSE(parse_method("bogus", &m));
}


TEST(NestedDissection, ValidPermutationAcrossClasses) {
  for (const CscMatrix& a : plu::test::small_matrices()) {
    const Pattern ata = Pattern::ata(a.pattern());
    Permutation p = nested_dissection(ata);
    EXPECT_EQ(p.size(), a.cols());
    EXPECT_TRUE(Permutation::is_valid(p.old_positions())) << describe(a);
  }
}

TEST(NestedDissection, ReducesFillVsNaturalOnGrids) {
  CscMatrix a = gen::grid2d(16, 16, {});
  const Pattern ata = Pattern::ata(a.pattern());
  long natural = symbolic_fill(a.pattern(), Permutation(a.cols()));
  long nd = symbolic_fill(a.pattern(), nested_dissection(ata));
  EXPECT_LT(nd, natural);
}

TEST(NestedDissection, ProducesBushierForestsThanRcm) {
  // The property this repository cares about: independent halves become
  // independent subtrees.  Count eforest leaves under each ordering.
  CscMatrix a = gen::grid2d(14, 14, {});
  auto leaves_for = [&](ordering::Method m) {
    Options opt;
    opt.ordering = m;
    Analysis an = analyze(a, opt);
    int leaves = 0;
    for (int v = 0; v < an.blocks.beforest.size(); ++v) {
      if (an.blocks.beforest.children(v).empty()) ++leaves;
    }
    return leaves;
  };
  EXPECT_GT(leaves_for(ordering::Method::kNestedDissectionAtA),
            leaves_for(ordering::Method::kRcmAtA));
}

TEST(NestedDissection, HandlesDisconnectedGraphs) {
  CooMatrix coo(9, 9);
  for (int i = 0; i < 9; ++i) coo.add(i, i, 1.0);
  for (int i : {0, 1}) {
    coo.add(i, i + 1, 1.0);
    coo.add(i + 1, i, 1.0);
  }
  for (int i : {5, 6, 7}) {
    coo.add(i, i + 1, 1.0);
    coo.add(i + 1, i, 1.0);
  }
  NestedDissectionOptions opt;
  opt.leaf_size = 2;
  Permutation p = nested_dissection(coo.to_csc().pattern(), opt);
  EXPECT_TRUE(Permutation::is_valid(p.old_positions()));
}

TEST(NestedDissection, EndToEndSolve) {
  CscMatrix a = gen::grid3d(5, 5, 4, {});
  Options opt;
  opt.ordering = ordering::Method::kNestedDissectionAtA;
  std::vector<double> b(a.rows(), 1.0);
  std::vector<double> x = SparseLU::solve_system(a, b, opt);
  EXPECT_LT(relative_residual(a, x, b), 1e-10);
}

// --- Separator-rule regression (PR 9 bugfix) --------------------------------

TEST(NestedDissection, BoundarySeparatorIsSmallerAndFillNoWorse) {
  // The old rule promoted the ENTIRE cut level to the separator; the fixed
  // rule keeps only the boundary (cut-level vertices adjacent to the far
  // side) and folds interior cut-level vertices into their half.  A dropped
  // grid has pendant-ish vertices whose neighbors all sit at or before the
  // cut, so its cut levels contain interior vertices the boundary rule
  // reclaims (a PLAIN grid's A'A band is already the minimal level-based
  // separator -- every band vertex touches the far side -- so there the two
  // rules coincide; that case is covered below as a no-regress check).
  gen::StencilOptions drop;
  drop.drop_probability = 0.25;
  drop.seed = 7;
  CscMatrix a = gen::grid2d(20, 20, drop);
  const Pattern ata = Pattern::ata(a.pattern());

  NestedDissectionOptions legacy;
  legacy.separator = NestedDissectionOptions::SeparatorRule::kCutLevel;
  NestedDissectionStats legacy_stats;
  Permutation legacy_perm = nested_dissection(ata, legacy, &legacy_stats);

  NestedDissectionStats boundary_stats;
  Permutation boundary_perm = nested_dissection(ata, {}, &boundary_stats);

  ASSERT_TRUE(Permutation::is_valid(boundary_perm.old_positions()));
  ASSERT_GT(legacy_stats.top_separator, 0);
  ASSERT_GT(boundary_stats.top_separator, 0);
  // The header contract: the separator is a boundary set, not a whole level.
  EXPECT_LT(boundary_stats.top_separator, legacy_stats.top_separator);
  EXPECT_LT(boundary_stats.separator_vertices,
            legacy_stats.separator_vertices);
  // Smaller separators must not cost fill.
  long legacy_fill = symbolic_fill(a.pattern(), legacy_perm);
  long boundary_fill = symbolic_fill(a.pattern(), boundary_perm);
  ASSERT_GT(legacy_fill, 0);
  EXPECT_LE(boundary_fill, legacy_fill);

  // Plain grid: the rules pick the same (minimal) separator set, and the
  // boundary rule's MD-ordered separator must not regress fill.
  CscMatrix plain = gen::grid2d(16, 16, {});
  const Pattern plain_ata = Pattern::ata(plain.pattern());
  NestedDissectionStats pl, pb;
  Permutation plain_legacy = nested_dissection(plain_ata, legacy, &pl);
  Permutation plain_boundary = nested_dissection(plain_ata, {}, &pb);
  EXPECT_LE(pb.top_separator, pl.top_separator);
  EXPECT_LE(symbolic_fill(plain.pattern(), plain_boundary),
            symbolic_fill(plain.pattern(), plain_legacy));
}

TEST(NestedDissection, CliqueFallbackPath) {
  // A clique has one BFS level (max_level < 2): no bisection is possible and
  // the dissector must fall back to minimum degree on the whole vertex set.
  const int n = 12;
  CooMatrix coo(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) coo.add(i, j, 1.0);
  }
  NestedDissectionOptions opt;
  opt.leaf_size = 4;  // force an attempted bisection
  NestedDissectionStats stats;
  Permutation p = nested_dissection(coo.to_csc().pattern(), opt, &stats);
  EXPECT_TRUE(Permutation::is_valid(p.old_positions()));
  EXPECT_EQ(p.size(), n);
  EXPECT_GE(stats.clique_fallbacks, 1);
  EXPECT_EQ(stats.bisections, 0);
}

TEST(NestedDissection, DepthCapOnDegenerateRecursion) {
  // 80 isolated vertices with leaf_size 0: every level peels one singleton
  // component off via the disconnected-split path, so the recursion depth
  // grows linearly and must hit the depth cap instead of recursing forever.
  const int n = 80;
  CooMatrix coo(n, n);
  for (int i = 0; i < n; ++i) coo.add(i, i, 1.0);
  NestedDissectionOptions opt;
  opt.leaf_size = 0;
  NestedDissectionStats stats;
  Permutation p = nested_dissection(coo.to_csc().pattern(), opt, &stats);
  EXPECT_TRUE(Permutation::is_valid(p.old_positions()));
  EXPECT_EQ(p.size(), n);
  EXPECT_GE(stats.depth_cap_hits, 1);
  EXPECT_GT(stats.max_depth, 64);
}

TEST(NestedDissection, DisconnectedStatsStayConsistent) {
  CooMatrix coo(9, 9);
  for (int i = 0; i < 9; ++i) coo.add(i, i, 1.0);
  for (int i : {0, 1}) {
    coo.add(i, i + 1, 1.0);
    coo.add(i + 1, i, 1.0);
  }
  for (int i : {5, 6, 7}) {
    coo.add(i, i + 1, 1.0);
    coo.add(i + 1, i, 1.0);
  }
  NestedDissectionOptions opt;
  opt.leaf_size = 2;
  NestedDissectionStats stats;
  Permutation p = nested_dissection(coo.to_csc().pattern(), opt, &stats);
  EXPECT_TRUE(Permutation::is_valid(p.old_positions()));
  EXPECT_GE(stats.max_depth, 1);   // the component split recursed
  EXPECT_GE(stats.bisections, 1);  // the 3/4-vertex chains still bisect
  EXPECT_GE(stats.top_separator, 1);
}

// --- AMD --------------------------------------------------------------------

TEST(Amd, ValidAcrossClassesAndReducesFill) {
  for (const CscMatrix& a : plu::test::small_matrices()) {
    Permutation p = approximate_minimum_degree_ata(a.pattern());
    EXPECT_EQ(p.size(), a.cols());
    EXPECT_TRUE(Permutation::is_valid(p.old_positions())) << describe(a);
  }
  CscMatrix grid = gen::grid2d(14, 14, {});
  long natural = symbolic_fill(grid.pattern(), Permutation(grid.cols()));
  long amd =
      symbolic_fill(grid.pattern(), approximate_minimum_degree_ata(grid.pattern()));
  EXPECT_LT(amd, natural);
}

TEST(Amd, DefersArrowheadHubAndCollapsesClique) {
  // Arrowhead: like the exact engine, the hub goes (essentially) last.
  CooMatrix coo(20, 20);
  for (int i = 0; i < 20; ++i) coo.add(i, i, 1.0);
  for (int i = 1; i < 20; ++i) {
    coo.add(0, i, 1.0);
    coo.add(i, 0, 1.0);
  }
  Permutation perm = approximate_minimum_degree(coo.to_csc().pattern());
  EXPECT_TRUE(perm.old_of(19) == 0 || perm.old_of(18) == 0);

  // Clique: all vertices are indistinguishable; the supervariable +
  // mass-elimination path must still emit every one of them exactly once.
  const int n = 12;
  CooMatrix k(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) k.add(i, j, 1.0);
  }
  Permutation pk = approximate_minimum_degree(k.to_csc().pattern());
  EXPECT_EQ(pk.size(), n);
  EXPECT_TRUE(Permutation::is_valid(pk.old_positions()));
}

TEST(Amd, EmptyAndSingleton) {
  Pattern empty(0, 0);
  EXPECT_EQ(approximate_minimum_degree(empty).size(), 0);
  CooMatrix coo(1, 1);
  coo.add(0, 0, 1.0);
  EXPECT_EQ(approximate_minimum_degree(coo.to_csc().pattern()).size(), 1);
}

TEST(MinimumDegree, PowerLawHubColumnsFinishInBudget) {
  // PR 9 regression: exact minimum degree rescans hub elements every round,
  // which is quadratic on power-law graphs -- a 30k-column instance used to
  // be effectively unbounded.  The guarded entry point routes hub-heavy
  // graphs to AMD, which must finish comfortably inside a generous budget.
  CscMatrix a = gen::power_law(30000, 4.0, 2.0, 0.6, 0.8, 9);
  const Pattern ata = Pattern::ata(a.pattern());
  ASSERT_TRUE(hub_heavy(ata));  // the guard must actually fire on this shape
  const auto t0 = std::chrono::steady_clock::now();
  Permutation p = minimum_degree_ata(a.pattern());
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_EQ(p.size(), a.cols());
  EXPECT_TRUE(Permutation::is_valid(p.old_positions()));
  EXPECT_LT(secs, 120.0) << "hub guard failed: ordering took " << secs << "s";
}

// --- Sweep matrices ----------------------------------------------------------

// Five matrix classes x ten seeds (convected 2-D grids, dropped 3-D grids,
// banded, uniform random, circuit), plus power-law hub shapes.
std::vector<CscMatrix> amd_sweep_matrices() {
  std::vector<CscMatrix> out;
  gen::StencilOptions g;
  for (std::uint64_t s = 0; s < 10; ++s) {
    g.seed = 100 + s;
    g.convection = 0.3 + 0.05 * s;
    out.push_back(gen::grid2d(4 + static_cast<int>(s), 5, g));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    g.seed = 200 + s;
    g.drop_probability = 0.1;
    out.push_back(gen::grid3d(3, 3, 2 + static_cast<int>(s % 3), g));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(gen::banded(40 + 3 * static_cast<int>(s),
                              {-7, -3, -1, 1, 3, 7}, 0.7, 0.7, 300 + s));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(gen::random_sparse(30 + 2 * static_cast<int>(s), 2.5, 0.5,
                                     0.8, 400 + s));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.push_back(gen::circuit(45 + 2 * static_cast<int>(s), 2, 2.5, 500 + s));
  }
  for (std::uint64_t s = 0; s < 4; ++s) {
    out.push_back(
        gen::power_law(600 + 150 * static_cast<int>(s), 4.0, 2.0, 0.6, 0.8,
                       600 + s));
  }
  return out;
}

// --- Exact minimum degree vs the rescanning reference (DESIGN.md 15) --------

// The engine's degree refresh reuses |e \ N| and the pruned edge lists
// instead of rescanning every element boundary; it must still take the
// same bucket operations in the same order, so the permutation is
// bitwise the reference's (tests/md_reference.h).
void expect_same_as_reference(const Pattern& g, const std::string& what) {
  EXPECT_EQ(minimum_degree(g).old_positions(),
            plu::test::reference_minimum_degree(g).old_positions())
      << what << " (n=" << g.cols << ")";
}

Pattern symmetric_graph(int n, const std::vector<std::pair<int, int>>& edges) {
  CooMatrix coo(n, n);
  for (int i = 0; i < n; ++i) coo.add(i, i, 1.0);
  for (auto [i, j] : edges) {
    coo.add(i, j, 1.0);
    coo.add(j, i, 1.0);
  }
  return coo.to_csc().pattern();
}

TEST(MinimumDegreeEquivalence, SweepMatrices) {
  int i = 0;
  for (const CscMatrix& a : amd_sweep_matrices()) {
    expect_same_as_reference(Pattern::ata(a.pattern()),
                             "sweep #" + std::to_string(i++));
  }
}

TEST(MinimumDegreeEquivalence, Table1Suite) {
  for (const NamedMatrix& m : make_benchmark_suite()) {
    expect_same_as_reference(Pattern::ata(m.a.pattern()), m.name);
  }
}

TEST(MinimumDegreeEquivalence, ProductionShapes) {
  for (std::uint64_t s : {11u, 12u, 13u}) {
    gen::StencilOptions g;
    g.seed = s;
    g.drop_probability = 0.1;
    expect_same_as_reference(
        Pattern::ata(gen::grid3d(14, 14, 14, g).pattern()),
        "grid3d 14^3 seed " + std::to_string(s));
    expect_same_as_reference(
        Pattern::ata(gen::random_sparse(1000, 3.0, 0.5, 0.7, s).pattern()),
        "random_sparse(1000) seed " + std::to_string(s));
  }
  gen::StencilOptions g;
  g.seed = 81;
  expect_same_as_reference(
      Pattern::ata(gen::multiphysics3d(8, 8, 4, 4, g).pattern()),
      "multiphysics3d(8,8,4,4)");
}

TEST(MinimumDegreeEquivalence, HandBuiltGraphsReachEveryDegreeCase) {
  // Leaves (degree 1) go first, so the passes are predictable.
  // Path 0-1-2-3.  Pass 1 eliminates both ends: 1 and 2 each sit in one new
  // element and no old one.  Pass 2 eliminates 1, whose element {2} reaches
  // 2, and 2's pass-1 element {2} is still live: new plus one old.
  expect_same_as_reference(symmetric_graph(4, {{0, 1}, {1, 2}, {2, 3}}),
                           "path");
  // Hub 0 sits in a clique {0,1,2,3,4} and has leaves 5 and 6; 7 links 0 to
  // leaf 8.  Pass 1 eliminates 5, 6 and 8, so 0 sits in two new elements
  // (two pivots of one pass share a neighbour).  Pass 2 eliminates 7, whose
  // element reaches 0, and 0's two pass-1 elements are now old: new plus
  // two old.
  std::vector<std::pair<int, int>> hub = {{0, 5}, {0, 6}, {0, 7}, {7, 8}};
  for (int i = 0; i < 5; ++i) {
    for (int j = i + 1; j < 5; ++j) hub.push_back({i, j});
  }
  expect_same_as_reference(symmetric_graph(9, hub), "hub with leaves");
  // Two stars joined centre to centre, with a chain off one leaf: every
  // case, several times over.
  expect_same_as_reference(
      symmetric_graph(10, {{0, 1}, {0, 2}, {0, 3}, {4, 5}, {4, 6}, {4, 7},
                           {0, 4}, {3, 8}, {8, 9}}),
      "twin stars");
}

// --- Policy engine ----------------------------------------------------------

TEST(OrderingPolicy, FeatureDrivenSelection) {
  const auto pick = [](const CscMatrix& a) {
    return select_method(compute_features(a.pattern()));
  };
  // Small orders: exact minimum degree, 3-D or not.
  EXPECT_EQ(pick(gen::grid2d(6, 6, {})), Method::kMinimumDegreeAtA);
  EXPECT_EQ(pick(gen::grid3d(6, 6, 6, {})), Method::kMinimumDegreeAtA);
  // Hub-skewed degree profile: minimum degree (its hub guard reaches AMD).
  EXPECT_EQ(pick(gen::power_law(4000, 4.0, 2.0, 0.6, 0.8, 11)),
            Method::kMinimumDegreeAtA);
  // Thin band at scale: minimum degree.
  EXPECT_EQ(pick(gen::banded(8000, {-1, 1}, 1.0, 0.7, 12)),
            Method::kMinimumDegreeAtA);
  // 2-D mesh (average degree under 5): minimum degree.
  EXPECT_EQ(pick(gen::grid2d(70, 70, {})), Method::kMinimumDegreeAtA);
  // 3-D stencils, whole and with a tenth of the couplings dropped, and a
  // multi-field 3-D stencil: nested dissection.
  EXPECT_EQ(pick(gen::grid3d(14, 14, 14, {})), Method::kNestedDissectionAtA);
  gen::StencilOptions g;
  g.drop_probability = 0.1;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    g.seed = seed;
    EXPECT_EQ(pick(gen::grid3d(14, 14, 14, g)), Method::kNestedDissectionAtA)
        << "grid3d 14^3 drop 0.1, seed " << seed;
  }
  EXPECT_EQ(pick(gen::multiphysics3d(8, 8, 4, 4, {})),
            Method::kNestedDissectionAtA);
  // Thinned 3-D grids lose the stencil's regular degrees: minimum degree.
  g.drop_probability = 0.3;
  EXPECT_EQ(pick(gen::grid3d(14, 14, 14, g)), Method::kMinimumDegreeAtA);
  // The dry run's comparison candidate is the other of the two engines.
  EXPECT_EQ(runner_up(Method::kMinimumDegreeAtA),
            Method::kNestedDissectionAtA);
  EXPECT_EQ(runner_up(Method::kNestedDissectionAtA),
            Method::kMinimumDegreeAtA);
}

// The policy's fill gate: on the Table-1 suite and the production shapes,
// auto's LU fill is within 10% of the better of minimum degree and nested
// dissection (so never meaningfully worse than the old MD default either).
TEST(OrderingPolicy, AutoFillGate) {
  std::vector<std::pair<std::string, CscMatrix>> cases;
  for (NamedMatrix& nm : make_benchmark_suite()) {
    cases.emplace_back(nm.name, std::move(nm.a));
  }
  {
    gen::StencilOptions g;
    g.drop_probability = 0.1;
    g.seed = 14;
    cases.emplace_back("grid3d-14 drop 0.1", gen::grid3d(14, 14, 14, g));
  }
  {
    std::vector<CscMatrix> domains;
    for (int d = 0; d < 4; ++d) {
      gen::StencilOptions g;
      g.seed = 400 + d;
      domains.push_back(gen::multiphysics3d(8, 8, 4, 4, g));
    }
    cases.emplace_back("multiphys forest4", gen::block_diag(domains));
  }
  cases.emplace_back("power_law(1500)",
                     gen::power_law(1500, 4.0, 2.0, 0.6, 0.8, 15));
  cases.emplace_back("random_sparse(1000)",
                     gen::random_sparse(1000, 3.0, 0.5, 0.7, 16));
  const auto fill = [](const CscMatrix& a, Method m) {
    Options opt;
    opt.ordering = m;
    return analyze(a, opt).fill_ratio();
  };
  for (const auto& [name, a] : cases) {
    const Analysis automatic = analyze(a);  // the default: kAuto
    ASSERT_EQ(automatic.ordering_decision.requested, Method::kAuto) << name;
    const double md = fill(a, Method::kMinimumDegreeAtA);
    const double nd = fill(a, Method::kNestedDissectionAtA);
    EXPECT_LE(automatic.fill_ratio(), 1.10 * std::min(md, nd))
        << name << ": auto picked "
        << to_string(automatic.ordering_decision.chosen) << ", MD " << md
        << ", ND " << nd;
  }
}

TEST(OrderingPolicy, AutoDecisionRecordedInReports) {
  CscMatrix a = gen::grid2d(10, 10, {});  // n = 100 -> policy picks exact MD
  Options opt;
  opt.ordering = Method::kAuto;
  Analysis an = analyze(a, opt);
  EXPECT_EQ(an.ordering_decision.requested, Method::kAuto);
  EXPECT_EQ(an.ordering_decision.chosen, Method::kMinimumDegreeAtA);
  EXPECT_EQ(an.ordering_decision.engine, "minimum-degree");
  EXPECT_EQ(an.ordering_decision.features.n, 100);
  EXPECT_FALSE(an.ordering_decision.dry_run);

  // auto must produce the exact artifacts of requesting the winner directly.
  Options direct;
  direct.ordering = Method::kMinimumDegreeAtA;
  Analysis an2 = analyze(a, direct);
  EXPECT_EQ(an.col_perm.old_positions(), an2.col_perm.old_positions());
  EXPECT_EQ(an2.ordering_decision.requested, Method::kMinimumDegreeAtA);

  // The decision is surfaced through both report types.
  AnalysisReport ar = report(an);
  EXPECT_EQ(ar.ordering.chosen, Method::kMinimumDegreeAtA);
  EXPECT_NE(to_string(ar).find("ordering:"), std::string::npos);
  Factorization f(an, a, {});
  FactorizationReport fr = report(f);
  EXPECT_EQ(fr.ordering.chosen, Method::kMinimumDegreeAtA);
  EXPECT_NE(to_string(fr).find("ordering:"), std::string::npos);
}

TEST(OrderingPolicy, DryRunPicksLowerFillDeterministically) {
  CscMatrix a = gen::power_law(600, 4.0, 2.0, 0.6, 0.8, 21);
  Controls ctl;
  ctl.dry_run = true;
  Decision d;
  Permutation p =
      compute_column_ordering(a.pattern(), Method::kAuto, ctl, &d);
  EXPECT_TRUE(Permutation::is_valid(p.old_positions()));
  EXPECT_TRUE(d.dry_run);
  EXPECT_GT(d.dry_run_fill_chosen, 0);
  EXPECT_LE(d.dry_run_fill_chosen, d.dry_run_fill_alternative);
  // The recorded fill is the chosen permutation's actual Cholesky fill.
  EXPECT_EQ(cholesky_fill(Pattern::ata(a.pattern()), p),
            d.dry_run_fill_chosen);
  // Repeatable: the dry run is pure.
  Decision d2;
  Permutation p2 =
      compute_column_ordering(a.pattern(), Method::kAuto, ctl, &d2);
  EXPECT_EQ(p.old_positions(), p2.old_positions());
  EXPECT_EQ(d.chosen, d2.chosen);
  EXPECT_EQ(d.dry_run_fill_chosen, d2.dry_run_fill_chosen);
}

}  // namespace
}  // namespace plu::ordering
