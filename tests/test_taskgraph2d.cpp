// Block-granularity task decomposition (the 2-D scheme) through the
// unified builder: enumeration, dependence rules, the shared S* chain rule,
// flop conservation, and scalability relative to the column-granularity
// graph.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "runtime/simulator.h"
#include "taskgraph/analysis.h"
#include "taskgraph/build.h"
#include "test_helpers.h"

namespace plu::taskgraph {
namespace {

symbolic::BlockStructure make_blocks(const CscMatrix& a) {
  return analyze(a).blocks;
}

TaskGraph build_2d(const symbolic::BlockStructure& bs,
                   GraphKind kind = GraphKind::kEforest) {
  return build_task_graph(bs, kind, Granularity::kBlock);
}

TEST(TaskGraph2D, EnumerationCounts) {
  for (const CscMatrix& a : test::small_matrices()) {
    symbolic::BlockStructure bs = make_blocks(a);
    TaskGraph g = build_2d(bs);
    EXPECT_EQ(g.granularity(), Granularity::kBlock);
    long expected = bs.num_blocks();  // FD per block column
    for (int k = 0; k < bs.num_blocks(); ++k) {
      long l = static_cast<long>(bs.l_blocks(k).size());
      long u = static_cast<long>(bs.u_blocks(k).size());
      expected += l + u + l * u;
    }
    EXPECT_EQ(g.size(), expected) << describe(a);
  }
}

TEST(TaskGraph2D, AcyclicAndComplete) {
  for (const CscMatrix& a : test::small_matrices()) {
    symbolic::BlockStructure bs = make_blocks(a);
    for (GraphKind kind : {GraphKind::kEforest, GraphKind::kSStar,
                           GraphKind::kSStarProgramOrder}) {
      TaskGraph g = build_2d(bs, kind);
      std::vector<int> order = topological_order(g);
      EXPECT_EQ(static_cast<int>(order.size()), g.size())
          << describe(a) << " " << to_string(kind);
    }
  }
}

TEST(TaskGraph2D, IdSchemeRoundTrips) {
  // The unified id scheme: factor_id(k) == k at both granularities, and
  // every block task is recoverable from its indices.
  CscMatrix a = test::small_matrices()[0];
  symbolic::BlockStructure bs = make_blocks(a);
  TaskGraph g = build_2d(bs);
  for (int id = 0; id < g.size(); ++id) {
    const Task& t = g.tasks.task(id);
    switch (t.kind) {
      case TaskKind::kFactorDiag:
        EXPECT_EQ(g.tasks.factor_id(t.k), id);
        EXPECT_EQ(t.k, id);  // factor of column k IS task id k
        break;
      case TaskKind::kFactorL:
        EXPECT_EQ(g.tasks.factor_l_id(t.i, t.k), id);
        break;
      case TaskKind::kComputeU:
        EXPECT_EQ(g.tasks.compute_u_id(t.k, t.j), id);
        break;
      case TaskKind::kUpdateBlock:
        EXPECT_EQ(g.tasks.update_block_id(t.i, t.k, t.j), id);
        break;
      default:
        FAIL() << "column-granularity task in a block-granularity list";
    }
  }
  EXPECT_EQ(g.tasks.factor_l_id(0, 0), -1);  // i == k is never an L block
}

TEST(TaskGraph2D, EdgeRules) {
  CscMatrix a = test::small_matrices()[0];
  symbolic::BlockStructure bs = make_blocks(a);
  TaskGraph g = build_2d(bs);
  for (int id = 0; id < g.size(); ++id) {
    const Task& from = g.tasks.task(id);
    for (int sid : g.succ[id]) {
      const Task& to = g.tasks.task(sid);
      switch (from.kind) {
        case TaskKind::kFactorDiag:
          // FD(k) feeds only its own stage's FL/CU.
          EXPECT_TRUE(to.kind == TaskKind::kFactorL ||
                      to.kind == TaskKind::kComputeU);
          EXPECT_EQ(to.k, from.k);
          break;
        case TaskKind::kFactorL:
        case TaskKind::kComputeU:
          // Feeds updates of the same stage only.
          EXPECT_EQ(to.kind, TaskKind::kUpdateBlock);
          EXPECT_EQ(to.k, from.k);
          break;
        case TaskKind::kUpdateBlock:
          // Feeds the next update into block (i, j) from an ancestor
          // source (the per-block rule 4), or the block's consumer at a
          // later stage.
          EXPECT_GT(to.k, from.k);
          if (to.kind == TaskKind::kUpdateBlock) {
            EXPECT_EQ(to.i, from.i);
            EXPECT_EQ(to.j, from.j);
            EXPECT_TRUE(bs.beforest.is_ancestor(to.k, from.k));
          } else if (from.i == from.j) {
            EXPECT_EQ(to.kind, TaskKind::kFactorDiag);
            EXPECT_EQ(to.k, from.i);
          } else if (from.i > from.j) {
            EXPECT_EQ(to.kind, TaskKind::kFactorL);
            EXPECT_EQ(to.i, from.i);
            EXPECT_EQ(to.k, from.j);
          } else {
            EXPECT_EQ(to.kind, TaskKind::kComputeU);
            EXPECT_EQ(to.i, from.i);
            EXPECT_EQ(to.j, from.j);
          }
          break;
        default:
          FAIL() << "column-granularity task in a block-granularity graph";
      }
    }
  }
}

TEST(TaskGraph2D, SStarChainsSerializeUpdatesPerBlock) {
  // The S* rule at block granularity: the updates into each target block
  // form one chain (every UpdateBlock has exactly one successor -- the
  // next update into its block or the block's consumer) and the eforest
  // edge set is a subset of the chained one's transitive closure.
  CscMatrix a = test::small_matrices()[1];
  symbolic::BlockStructure bs = make_blocks(a);
  TaskGraph g = build_2d(bs, GraphKind::kSStar);
  for (int id = 0; id < g.size(); ++id) {
    if (g.tasks.task(id).kind == TaskKind::kUpdateBlock) {
      EXPECT_EQ(g.succ[id].size(), 1u) << to_string(g.tasks.task(id));
    }
  }
  TaskGraph e = build_2d(bs, GraphKind::kEforest);
  EXPECT_GE(g.num_edges(), e.num_edges());
  EXPECT_TRUE(edges_subset_of_closure(e, g));
}

TEST(TaskGraph2D, FlopsMatch1DTotal) {
  // The 2-D split re-partitions the same arithmetic: totals must agree.
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    TaskGraph g2 = build_2d(an.blocks);
    EXPECT_NEAR(g2.total_flops, an.costs.total_flops,
                1e-9 * an.costs.total_flops)
        << describe(a);
  }
}

TEST(TaskGraph2D, CriticalPathNeverLonger) {
  // Splitting tasks can only shorten (or keep) the weighted critical path.
  for (const CscMatrix& a : test::small_matrices()) {
    Analysis an = analyze(a);
    TaskGraph g2 = build_2d(an.blocks);
    double cp1 = critical_path(an.graph, an.costs.flops).length;
    double cp2 = critical_path(g2, g2.flops).length;
    EXPECT_LE(cp2, cp1 + 1e-9) << describe(a);
  }
}

TEST(TaskGraph2D, SimulatesAndScalesAtLeastAsWell) {
  CscMatrix a = gen::grid2d(14, 14, {});
  Analysis an = analyze(a);
  TaskGraph g2 = build_2d(an.blocks);
  std::vector<double> bl = bottom_levels(g2, g2.flops);
  rt::MachineModel m1 = rt::MachineModel::origin2000(1);
  rt::MachineModel m8 = rt::MachineModel::origin2000(8);
  double s1d = rt::simulate(an.graph, an.costs, m1).makespan /
               rt::simulate(an.graph, an.costs, m8).makespan;
  double t1 = rt::simulate_dag(g2.succ, g2.indegree, g2.flops, g2.output_bytes,
                               m1, bl)
                  .makespan;
  double t8 = rt::simulate_dag(g2.succ, g2.indegree, g2.flops, g2.output_bytes,
                               m8, bl)
                  .makespan;
  EXPECT_GT(t1 / t8, s1d * 0.9);  // 2-D at least in the same league at P=8
  EXPECT_GT(t1 / t8, 2.0);
}

TEST(TaskGraph2D, OwnersRespectProcessGrid) {
  CscMatrix a = test::small_matrices()[0];
  symbolic::BlockStructure bs = make_blocks(a);
  TaskGraph g = build_2d(bs);
  const int pr = 2, pc = 3;
  std::vector<int> owners = block_cyclic_owners(g, pr, pc);
  ASSERT_EQ(static_cast<int>(owners.size()), g.size());
  for (int id = 0; id < g.size(); ++id) {
    EXPECT_GE(owners[id], 0);
    EXPECT_LT(owners[id], pr * pc);
    const Task& t = g.tasks.task(id);
    if (t.kind == TaskKind::kUpdateBlock) {
      EXPECT_EQ(owners[id], (t.i % pr) * pc + (t.j % pc));
    }
  }
}

TEST(TaskGraph2D, PinnedSimulationConservesWorkAndRespectsBounds) {
  CscMatrix a = gen::grid2d(12, 12, {});
  Analysis an = analyze(a);
  TaskGraph g = build_2d(an.blocks);
  rt::MachineModel m = rt::MachineModel::origin2000(4);
  std::vector<int> owners = block_cyclic_owners(g, 2, 2);
  rt::SimulationResult r = rt::simulate_dag_pinned(g.succ, g.indegree, g.flops,
                                                   g.output_bytes, m, owners);
  double busy = 0.0;
  for (double b : r.busy_seconds) busy += b;
  double serial = 0.0;
  for (double f : g.flops) serial += m.compute_seconds(f);
  EXPECT_NEAR(busy, serial, 1e-9 * serial);
  EXPECT_GE(r.makespan,
            critical_path(g, g.flops).length / m.flops_per_second - 1e-12);
  EXPECT_GT(r.messages, 0);
  // Free scheduling can only do as well or better than the fixed grid under
  // this machine model (same costs, more choices), modulo list anomalies.
  double free_t = rt::simulate_dag(g.succ, g.indegree, g.flops, g.output_bytes,
                                   m, bottom_levels(g, g.flops))
                      .makespan;
  EXPECT_LT(free_t, r.makespan * 1.10);
}

TEST(TaskGraph2D, Names) {
  // Task field order is {kind, k, j, i}.
  EXPECT_EQ(to_string(Task{TaskKind::kFactorDiag, 3, 3, 3}), "FD(3)");
  EXPECT_EQ(to_string(Task{TaskKind::kFactorL, 3, 3, 5}), "FL(5,3)");
  EXPECT_EQ(to_string(Task{TaskKind::kComputeU, 3, 7, 3}), "CU(3,7)");
  EXPECT_EQ(to_string(Task{TaskKind::kUpdateBlock, 3, 7, 5}), "UB(5,3,7)");
}

}  // namespace
}  // namespace plu::taskgraph
