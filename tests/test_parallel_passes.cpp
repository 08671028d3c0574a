// The O(storage) passes of a factorization and its solve on the run's
// workers: the load (zero + scatter + scale) and the factor scan split by
// column range, the triangular solve split by eforest tree
// (core/numeric.h, core/solve.h: solve_trees).  Every split must give the
// bits one pass on the caller gives -- factors, pivots, status, growth, min
// pivot ratio, solve and solve_matrix outputs -- for a fresh factorization
// and for an in-place refactor, in both layouts, for kSequential, a private
// 4-thread pool and a shared SharedRuntime(4).  The shapes are above
// kParallelPassDoubles, so the threaded arms really do split: the 16-domain
// forest (uncoupled trees: independent backward walks) and power_law(1500)
// (coupled trees: backward walks chained through cross-tree U blocks).
// Two Infs in block columns of different ranges check that the lowest
// non-finite column wins the overflow report.  In the `sanitize` label.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/solve.h"
#include "core/sparse_lu.h"
#include "matrix/generators.h"
#include "runtime/shared_runtime.h"
#include "test_helpers.h"

namespace plu {
namespace {

struct Shape {
  std::string name;
  CscMatrix a;
  bool coupled;  // some tree's backward walk writes an earlier tree's rows
  Analysis by_layout[2];  // indexed by Layout
};

/// The shapes with their analyses in both layouts, built once per process.
const std::vector<Shape>& shapes() {
  static const std::vector<Shape> out = [] {
    std::vector<Shape> s;
    std::vector<CscMatrix> domains;
    for (int d = 0; d < 16; ++d) {
      gen::StencilOptions g;
      g.seed = 31 + d;
      domains.push_back(gen::multiphysics3d(8, 8, 4, 4, g));
    }
    s.push_back({"forest16", gen::block_diag(domains), false, {}});
    s.push_back({"powerlaw1500",
                 gen::power_law(1500, 4.0, 2.0, 0.6, 0.8, 11), true, {}});
    for (Shape& shape : s) {
      for (Layout layout : {Layout::k1D, Layout::k2D}) {
        Options o;
        o.layout = layout;
        shape.by_layout[static_cast<int>(layout)] = analyze(shape.a, o);
      }
    }
    return s;
  }();
  return out;
}

const Analysis& analysis_of(const Shape& s, Layout layout) {
  return s.by_layout[static_cast<int>(layout)];
}

bool same_bits(double x, double y) { return std::memcmp(&x, &y, 8) == 0; }

bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), 8 * x.size()) == 0;
}

void expect_same_factors(const Factorization& ref, const Factorization& f,
                         const std::string& what) {
  ASSERT_EQ(ref.status(), f.status()) << what;
  EXPECT_EQ(ref.failed_column(), f.failed_column()) << what;
  EXPECT_TRUE(same_bits(ref.growth_factor(), f.growth_factor())) << what;
  EXPECT_TRUE(same_bits(ref.min_pivot_ratio(), f.min_pivot_ratio())) << what;
  const int nb = ref.analysis().blocks.num_blocks();
  for (int j = 0; j < nb; ++j) {
    ASSERT_EQ(ref.panel_ipiv(j), f.panel_ipiv(j)) << what << " column " << j;
    blas::ConstMatrixView r = ref.blocks().column(j);
    blas::ConstMatrixView p = f.blocks().column(j);
    ASSERT_EQ(0, std::memcmp(r.data, p.data, 8 * std::size_t(r.rows) * r.cols))
        << what << " column " << j;
  }
}

struct Solutions {
  std::vector<double> x;    // solve(b)
  std::vector<double> xm;   // solve_matrix of three columns
};

Solutions solutions(const Factorization& f, const NumericOptions& opt) {
  const int n = f.analysis().n;
  const std::vector<double> b = test::random_vector(n, 5);
  const std::vector<double> bm = test::random_vector(3 * n, 9);
  Solutions s;
  s.x = f.solve(b, opt);
  s.xm.resize(bm.size());
  f.solve_matrix({bm.data(), n, 3}, {s.xm.data(), n, 3}, opt);
  return s;
}

/// The arms under test: a private 4-thread pool and a shared one.
std::vector<std::pair<std::string, NumericOptions>> threaded_arms(
    rt::SharedRuntime& shared) {
  NumericOptions own;
  own.mode = ExecutionMode::kThreaded;
  own.threads = 4;
  NumericOptions on_shared = own;
  on_shared.shared_runtime = &shared;
  return {{"threaded4", own}, {"shared4", on_shared}};
}

TEST(ParallelPasses, ShapesSplitAboveTheThreshold) {
  for (const Shape& s : shapes()) {
    const Analysis& an = analysis_of(s, Layout::k1D);
    const BlockMatrix storage(an.blocks);
    EXPECT_GE(storage.storage_bytes() / sizeof(double), kParallelPassDoubles)
        << s.name;
    const SolveTrees trees = solve_trees(an);
    EXPECT_GT(trees.count(), 1) << s.name;
    // A backward-to-backward edge exists exactly when a tree's U blocks
    // write an earlier tree's rows.
    bool chained = false;
    for (int t = 0; t < trees.count(); ++t) {
      for (int v : trees.succ[trees.count() + t]) chained |= v >= trees.count();
    }
    EXPECT_EQ(chained, s.coupled) << s.name;
  }
}

TEST(ParallelPasses, ThreadedBitwiseEqualsSequentialFreshAndRefactor) {
  rt::SharedRuntime shared(4);
  for (const Shape& s : shapes()) {
    const CscMatrix other = gen::perturb_values(s.a, 0.1, 77);
    for (Layout layout : {Layout::k1D, Layout::k2D}) {
      const Analysis& an = analysis_of(s, layout);
      const std::string base = s.name + "/" + std::string(to_string(layout));
      const Factorization ref(an, s.a);
      ASSERT_TRUE(factor_usable(ref.status())) << base;
      const Solutions ref_x = solutions(ref, {});
      // kSequential refactor from other values.
      {
        Factorization f(an, other);
        f.refactor(s.a);
        expect_same_factors(ref, f, base + "/seq refactor");
      }
      for (const auto& [arm, opt] : threaded_arms(shared)) {
        const std::string what = base + "/" + arm;
        Factorization f(an, s.a, opt);
        expect_same_factors(ref, f, what + " fresh");
        Solutions x = solutions(f, opt);
        EXPECT_TRUE(same_bits(ref_x.x, x.x)) << what << " solve";
        EXPECT_TRUE(same_bits(ref_x.xm, x.xm)) << what << " solve_matrix";
        // In place: other values first, so the reload must zero the slab.
        f.refactor(other, opt);
        f.refactor(s.a, opt);
        expect_same_factors(ref, f, what + " refactor");
        x = solutions(f, opt);
        EXPECT_TRUE(same_bits(ref_x.x, x.x)) << what << " refactor solve";
        EXPECT_TRUE(same_bits(ref_x.xm, x.xm))
            << what << " refactor solve_matrix";
      }
    }
  }
}

TEST(ParallelPasses, LowestNonFiniteColumnWinsAcrossRanges) {
  // Infs in two U blocks above tree roots: a root's panel has no L blocks,
  // so nothing propagates them into a panel, and only the scan sees them.
  const Shape& s = shapes()[1];
  rt::SharedRuntime shared(4);
  for (Layout layout : {Layout::k1D, Layout::k2D}) {
    const Analysis& an = analysis_of(s, layout);
    const std::string base = s.name + "/" + std::string(to_string(layout));
    const symbolic::SupernodePartition& part = an.blocks.part;
    const SolveTrees trees = solve_trees(an);
    std::vector<int> root_tree(an.blocks.num_blocks(), -1);
    for (int t = 0; t < trees.count(); ++t) {
      root_tree[trees.bounds[t + 1] - 1] = t;
    }
    // A 4-worker pool splits the columns into 16 ranges.
    const std::vector<int> ranges = BlockMatrix(an.blocks).column_ranges(16);
    const auto range_of = [&](int j) {
      int r = 0;
      while (ranges[r + 1] <= j) ++r;
      return r;
    };
    CscMatrix a = s.a;
    std::vector<double>& val = a.values();
    std::vector<int> hit_cols;
    for (int j = 0; j < a.cols() && hit_cols.size() < 2; ++j) {
      const int bc = part.supernode_of(an.col_perm.new_of(j));
      for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
        const int br = part.supernode_of(an.row_perm.new_of(a.row_index(k)));
        if (br >= bc || root_tree[br] < 0) continue;
        if (!hit_cols.empty() && range_of(hit_cols[0]) == range_of(bc)) continue;
        val[k] = std::numeric_limits<double>::infinity();
        hit_cols.push_back(bc);
        break;
      }
    }
    ASSERT_EQ(hit_cols.size(), 2u) << base;
    const Factorization ref(an, a);
    ASSERT_EQ(ref.status(), FactorStatus::kOverflow) << base;
    const int lowest = std::min(hit_cols[0], hit_cols[1]);
    EXPECT_GE(ref.failed_column(), part.first(lowest)) << base;
    EXPECT_LT(ref.failed_column(), part.end(lowest)) << base;
    for (const auto& [arm, opt] : threaded_arms(shared)) {
      Factorization f(an, a, opt);
      EXPECT_EQ(f.status(), FactorStatus::kOverflow) << base << "/" << arm;
      EXPECT_EQ(f.failed_column(), ref.failed_column()) << base << "/" << arm;
      EXPECT_TRUE(same_bits(f.growth_factor(), ref.growth_factor()))
          << base << "/" << arm;
      f.refactor(s.a, opt);
      f.refactor(a, opt);
      EXPECT_EQ(f.status(), FactorStatus::kOverflow) << base << "/" << arm;
      EXPECT_EQ(f.failed_column(), ref.failed_column()) << base << "/" << arm;
    }
  }
}

}  // namespace
}  // namespace plu
