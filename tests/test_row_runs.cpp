// Row-exact 1-D updates (symbolic::ColumnPlan::row_runs).
//
// Update(k, j) writes only the diagonal rows of block (k, j) and the
// structural L rows of panel k in block column j, and the analysis checks
// that the writers of every scalar row form a chain in the block eforest
// (symbolic::row_writer_chain_violations).  With that, the eforest graph
// orders every pair of tasks writing one entry, and the drivers take no
// lock.  The gates here:
//   * the chain check finds no violation over the 50-matrix sweep, the
//     Table-1 stand-ins, the production shapes and larger random and
//     power-law patterns, with amalgamation off and on (and both
//     amalgamation splits), and the runs cover exactly the structural rows;
//   * 1-D threaded factors at 4 threads are bitwise equal to kSequential on
//     the benchmark and production shapes;
//   * the race checker, fed row footprints, catches both ways of breaking
//     the argument: one run widened by a row, and one Theorem-4 edge
//     dropped from the graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis.h"
#include "core/numeric.h"
#include "graph/eforest.h"
#include "matrix/generators.h"
#include "matrix/named_matrices.h"
#include "symbolic/repartition.h"
#include "test_helpers.h"

namespace plu {
namespace {

using Shape = std::pair<std::string, CscMatrix>;

// Same five matrix classes x ten seeds as the bitwise and race gates.
std::vector<Shape> sweep_shapes() {
  std::vector<Shape> out;
  gen::StencilOptions g;
  for (std::uint64_t s = 0; s < 10; ++s) {
    g.seed = 100 + s;
    g.convection = 0.3 + 0.05 * s;
    out.emplace_back("grid2d-" + std::to_string(s),
                     gen::grid2d(4 + static_cast<int>(s), 5, g));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    g.seed = 200 + s;
    g.drop_probability = 0.1;
    out.emplace_back("grid3d-" + std::to_string(s),
                     gen::grid3d(3, 3, 2 + static_cast<int>(s % 3), g));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.emplace_back("banded-" + std::to_string(s),
                     gen::banded(40 + 3 * static_cast<int>(s),
                                 {-7, -3, -1, 1, 3, 7}, 0.7, 0.7, 300 + s));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.emplace_back("random-" + std::to_string(s),
                     gen::random_sparse(30 + 2 * static_cast<int>(s), 2.5, 0.5,
                                        0.8, 400 + s));
  }
  for (std::uint64_t s = 0; s < 10; ++s) {
    out.emplace_back("circuit-" + std::to_string(s),
                     gen::circuit(45 + 2 * static_cast<int>(s), 2, 2.5, 500 + s));
  }
  return out;
}

/// The sweep, the Table-1 stand-ins, the production shapes, and larger
/// random and power-law patterns.
std::vector<Shape> chain_shapes() {
  std::vector<Shape> out = sweep_shapes();
  for (NamedMatrix& nm : make_benchmark_suite()) {
    out.emplace_back(nm.name, std::move(nm.a));
  }
  for (Shape& s : test::production_matrices()) out.push_back(std::move(s));
  for (std::uint64_t seed = 11; seed <= 15; ++seed) {
    out.emplace_back("random1000-" + std::to_string(seed),
                     gen::random_sparse(1000, 3.0, 0.5, 0.7, seed));
  }
  out.emplace_back("powerlaw1500", gen::power_law(1500, 4.0, 2.0, 0.6, 0.8, 5));
  return out;
}

/// The runs of every panel are exactly the L rows holding an Abar entry in
/// some column of the supernode: ascending, maximal, inside their block.
void expect_runs_are_structural_rows(const Analysis& an,
                                     const std::string& what) {
  const symbolic::SupernodePartition& part = an.blocks.part;
  const Pattern& abar = an.symbolic.abar;
  std::vector<int> mark(an.n, -1);
  long runs = 0;
  for (int k = 0; k < an.blocks.num_blocks(); ++k) {
    const symbolic::ColumnPlan& cp = an.block_plan.columns[k];
    for (int c = part.first(k); c < part.end(k); ++c) {
      for (const int* it = abar.col_begin(c); it != abar.col_end(c); ++it) {
        if (*it >= part.end(k)) mark[*it] = k;
      }
    }
    std::vector<int> expect, got;
    for (std::size_t t = 0; t < cp.l_list.size(); ++t) {
      for (int r = part.first(cp.l_list[t]); r < part.end(cp.l_list[t]); ++r) {
        if (mark[r] == k) expect.push_back(r);
      }
    }
    ASSERT_EQ(cp.run_ptr.size(), cp.l_list.size() + 1) << what;
    for (std::size_t t = 0; t < cp.l_list.size(); ++t) {
      for (int i = cp.run_ptr[t]; i < cp.run_ptr[t + 1]; ++i) {
        const symbolic::RowRun& run = cp.row_runs[i];
        ASSERT_EQ(run.block, static_cast<int>(t)) << what;
        ASSERT_GT(run.rows, 0) << what;
        ASSERT_GE(run.src, cp.l_offset[t]) << what;
        ASSERT_LE(run.src + run.rows, cp.l_offset[t + 1]) << what;
        if (i > cp.run_ptr[t]) {
          const symbolic::RowRun& prev = cp.row_runs[i - 1];
          EXPECT_GT(run.src, prev.src + prev.rows) << what << ": not maximal";
        }
        for (int r = 0; r < run.rows; ++r) {
          got.push_back(part.first(cp.l_list[t]) + run.src - cp.l_offset[t] + r);
        }
      }
    }
    EXPECT_EQ(got, expect) << what << ", panel " << k;
    EXPECT_EQ(cp.structural_rows, static_cast<int>(got.size())) << what;
    runs += static_cast<long>(cp.row_runs.size());
  }
  EXPECT_EQ(an.block_plan.summary.row_runs, runs) << what;
}

TEST(RowRuns, WriterChainsHoldOnSweepTable1AndProductionShapes) {
  const std::vector<Shape> shapes = chain_shapes();
  ASSERT_GE(shapes.size(), 67u);
  for (const auto& [name, a] : shapes) {
    for (int arm = 0; arm < 3; ++arm) {
      Options opt;
      opt.amalgamate = arm != 0;
      opt.amalgamation.require_parent_child = arm != 2;
      const std::string what = name + (arm == 0   ? ", exact supernodes"
                                       : arm == 1 ? ", amalgamated"
                                                  : ", amalgamated, free split");
      // analyze() throws std::logic_error on a violation; count them too.
      const Analysis an = analyze(a, opt);
      EXPECT_EQ(symbolic::row_writer_chain_violations(an.blocks, an.block_plan),
                0)
          << what;
      expect_runs_are_structural_rows(an, what);
    }
  }
}

void expect_same_bits(const Factorization& ref, const Factorization& got,
                      const std::string& what) {
  ASSERT_EQ(ref.status(), got.status()) << what;
  const int nb = ref.analysis().blocks.num_blocks();
  for (int j = 0; j < nb; ++j) {
    ASSERT_EQ(ref.panel_ipiv(j), got.panel_ipiv(j)) << what << " column " << j;
    blas::ConstMatrixView r = ref.blocks().column(j);
    blas::ConstMatrixView p = got.blocks().column(j);
    for (int c = 0; c < r.cols; ++c) {
      ASSERT_EQ(0, std::memcmp(r.data + std::size_t(c) * r.ld,
                               p.data + std::size_t(c) * p.ld,
                               8 * std::size_t(r.rows)))
          << what << " column " << j << " panel col " << c;
    }
  }
}

TEST(RowRuns, ThreadedBitsEqualSequentialWithoutLocks) {
  std::vector<Shape> shapes = test::production_matrices();
  {
    gen::StencilOptions g;
    g.drop_probability = 0.1;
    g.seed = 14;
    shapes.emplace_back("grid3d-14", gen::grid3d(14, 14, 14, g));
  }
  {
    std::vector<CscMatrix> domains;
    for (int d = 0; d < 16; ++d) {
      gen::StencilOptions g;
      g.seed = 1600 + d;
      domains.push_back(gen::multiphysics3d(8, 8, 4, 4, g));
    }
    shapes.emplace_back("forest16", gen::block_diag(domains));
  }
  for (const auto& [name, a] : shapes) {
    const Analysis an = analyze(a);
    if (name == "grid3d-14") {
      // The default ordering sends the cold shape to nested dissection.
      EXPECT_EQ(an.ordering_decision.chosen,
                ordering::Method::kNestedDissectionAtA);
    }
    NumericOptions seq;
    seq.mode = ExecutionMode::kSequential;
    const Factorization ref(an, a, seq);
    ASSERT_TRUE(factor_usable(ref.status())) << name;
    for (int rep = 0; rep < 2; ++rep) {
      NumericOptions thr;
      thr.mode = ExecutionMode::kThreaded;
      thr.threads = 4;
      const Factorization got(an, a, thr);
      expect_same_bits(ref, got, name + ", 4 threads, run " + std::to_string(rep));
    }
  }
}

/// Global rows of panel k that are NOT structural, paired with the index
/// of a run of k they are adjacent to (same L block), so widening that run
/// by one row covers them.
struct Widening {
  int k = -1;
  int run = -1;
  bool at_end = true;
  int row = -1;  // the global row added
};

/// Finds a widening whose added row is also written, in some block column
/// j, by an update from a source unordered with k in the block eforest.
Widening find_conflicting_widening(const Analysis& an) {
  const symbolic::SupernodePartition& part = an.blocks.part;
  const graph::AncestorIndex idx(an.blocks.beforest);
  const int nb = an.blocks.num_blocks();
  // writers[r]: block columns whose runs contain row r.
  std::vector<std::vector<int>> writers(an.n);
  for (int k = 0; k < nb; ++k) {
    const symbolic::ColumnPlan& cp = an.block_plan.columns[k];
    for (const symbolic::RowRun& run : cp.row_runs) {
      const int g0 =
          part.first(cp.l_list[run.block]) + run.src - cp.l_offset[run.block];
      for (int r = g0; r < g0 + run.rows; ++r) writers[r].push_back(k);
    }
  }
  const auto shares_target = [&](int k1, int k2) {
    const std::vector<int> u1 = an.blocks.u_blocks(k1);
    for (int j : an.blocks.u_blocks(k2)) {
      if (std::binary_search(u1.begin(), u1.end(), j)) return true;
    }
    return false;
  };
  for (int k = 0; k < nb; ++k) {
    const symbolic::ColumnPlan& cp = an.block_plan.columns[k];
    for (int i = 0; i < static_cast<int>(cp.row_runs.size()); ++i) {
      const symbolic::RowRun& run = cp.row_runs[i];
      const int t = run.block;
      const int g0 = part.first(cp.l_list[t]) - cp.l_offset[t];
      for (bool at_end : {true, false}) {
        const int src = at_end ? run.src + run.rows : run.src - 1;
        if (src < cp.l_offset[t] || src >= cp.l_offset[t + 1]) continue;
        const int row = g0 + src;
        if (std::find(writers[row].begin(), writers[row].end(), k) !=
            writers[row].end()) {
          continue;  // already structural (an adjacent run)
        }
        for (int other : writers[row]) {
          if (!idx.comparable(k, other) && shares_target(k, other)) {
            return {k, i, at_end, row};
          }
        }
      }
    }
  }
  return {};
}

TEST(RowRuns, CheckerFiresOnWidenedRun) {
  bool fired = false;
  for (const auto& [name, a] : sweep_shapes()) {
    const Analysis an = analyze(a);
    const Widening w = find_conflicting_widening(an);
    if (w.k < 0) continue;
    Analysis broken = an;
    symbolic::RowRun& run = broken.block_plan.columns[w.k].row_runs[w.run];
    if (!w.at_end) --run.src;
    ++run.rows;

    NumericOptions opt;
    opt.mode = ExecutionMode::kGraphSequential;  // deterministic; footprints
    opt.check_races = true;                      // are what matters here
    const Factorization f(broken, a, opt);
    ASSERT_TRUE(f.race_checked()) << name;
    ASSERT_FALSE(f.races().empty()) << name;
    // A reported race involves an update from the widened panel.
    bool involves_k = false;
    for (const rt::FootprintRace& r : f.races()) {
      for (int id : {r.task_a, r.task_b}) {
        const taskgraph::Task& t = an.graph.tasks.task(id);
        involves_k |= t.kind == taskgraph::TaskKind::kUpdate && t.k == w.k;
      }
    }
    EXPECT_TRUE(involves_k) << name;
    // The unwidened plan is clean on the same run.
    const Factorization clean(an, a, opt);
    EXPECT_TRUE(clean.races().empty()) << name;
    fired = true;
    break;
  }
  ASSERT_TRUE(fired) << "no sweep matrix admitted a conflicting widening";
}

TEST(RowRuns, CheckerFiresOnDroppedTheoremFourEdge) {
  bool fired = false;
  for (const auto& [name, a] : sweep_shapes()) {
    const Analysis an = analyze(a);
    // A rule-4 edge Update(k, j) -> Update(a, j) where a's diagonal rows
    // are structural rows of panel k: dropping it leaves two writers of one
    // row of column j unordered.
    const taskgraph::TaskList& tasks = an.graph.tasks;
    int drop_u = -1, drop_v = -1;
    for (int u = 0; u < an.graph.size() && drop_u < 0; ++u) {
      if (tasks.task(u).kind != taskgraph::TaskKind::kUpdate) continue;
      const int k = tasks.task(u).k;
      const symbolic::ColumnPlan& cp = an.block_plan.columns[k];
      for (int v : an.graph.succ[u]) {
        const taskgraph::Task& tv = tasks.task(v);
        if (tv.kind != taskgraph::TaskKind::kUpdate) continue;
        for (const symbolic::RowRun& run : cp.row_runs) {
          if (cp.l_list[run.block] == tv.k) {
            drop_u = u;
            drop_v = v;
          }
        }
        if (drop_u >= 0) break;
      }
    }
    if (drop_u < 0) continue;
    Analysis broken = an;
    auto& succ = broken.graph.succ[drop_u];
    succ.erase(std::find(succ.begin(), succ.end(), drop_v));
    broken.graph.indegree[drop_v] -= 1;

    NumericOptions opt;
    opt.mode = ExecutionMode::kGraphSequential;
    opt.check_races = true;
    const Factorization f(broken, a, opt);
    ASSERT_TRUE(f.race_checked()) << name;
    bool found_pair = false;
    for (const rt::FootprintRace& r : f.races()) {
      found_pair |= std::min(r.task_a, r.task_b) == std::min(drop_u, drop_v) &&
                    std::max(r.task_a, r.task_b) == std::max(drop_u, drop_v);
    }
    EXPECT_TRUE(found_pair) << name;
    fired = true;
    break;
  }
  ASSERT_TRUE(fired) << "no sweep matrix admitted a breakable edge";
}

}  // namespace
}  // namespace plu
