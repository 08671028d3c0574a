#include "taskgraph/build.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "blas/level3.h"

namespace plu::taskgraph {

long TaskGraph::num_edges() const {
  long e = 0;
  for (const auto& s : succ) e += static_cast<long>(s.size());
  return e;
}

namespace {

void add_edge(TaskGraph& g, int from, int to) {
  g.succ[from].push_back(to);
  ++g.indegree[to];
}

/// Edge insertion from inside a parallel region where the SOURCE list is
/// lane-owned but the target's indegree may be bumped by several lanes.
/// Commutative counter increments keep the final indegree (and the owned
/// succ ordering) bit-identical to the sequential build.
void add_edge_atomic_indegree(TaskGraph& g, int from, int to) {
  g.succ[from].push_back(to);
  rt::atomic_add_int(&g.indegree[to], 1);
}

/// The target an update task accumulates into, as a dense key: the block
/// column at column granularity, the individual block at block granularity.
long target_key(const Task& t, int nb) {
  return t.kind == TaskKind::kUpdate ? t.j
                                     : static_cast<long>(t.i) * nb + t.j;
}

/// The task that consumes an update's target once all updates landed: the
/// target column's Factor in 1-D; in 2-D the factor task of block (i, j) --
/// FactorDiag on the diagonal, FactorL below it, ComputeU above it.
int consumer_id(const TaskList& tl, const Task& t) {
  if (t.kind == TaskKind::kUpdate) return tl.factor_id(t.j);
  if (t.i == t.j) return tl.factor_id(t.j);
  if (t.i > t.j) return tl.factor_l_id(t.i, t.j);
  return tl.compute_u_id(t.i, t.j);
}

/// The S* chain rule, shared by both granularities: updates into each
/// target are chained in ascending source index (update ids are grouped by
/// source stage, so ascending id IS ascending source), and the target's
/// consumer waits for the tail of the chain.
void add_sstar_chains(TaskGraph& g, int nb) {
  std::unordered_map<long, int> last;  // target key -> latest update id
  for (int id = 0; id < g.size(); ++id) {
    const Task& t = g.tasks.task(id);
    if (!is_update(t.kind)) continue;
    auto [it, fresh] = last.try_emplace(target_key(t, nb), id);
    if (!fresh) {
      add_edge(g, it->second, id);
      it->second = id;
    }
  }
  for (int id = 0; id < g.size(); ++id) {
    const Task& t = g.tasks.task(id);
    if (!is_update(t.kind)) continue;
    if (last.at(target_key(t, nb)) != id) continue;  // not the chain tail
    int consumer = consumer_id(g.tasks, t);
    assert(consumer != -1 && "pairwise closure violated: consumer missing");
    if (consumer != -1) add_edge(g, id, consumer);
  }
}

/// The program-order rule, shared by both granularities: each source
/// stage's update fan-out is a chain (the sequential inner loop of the
/// reference algorithm).  Stages touch only their own update-id range, so
/// the fan-out over stages is write-disjoint.
void add_program_order_chains(TaskGraph& g, int nb, rt::Team& team) {
  team.parallel_for(g.size(), nb, [&](int kb, int ke, int) {
    for (int k = kb; k < ke; ++k) {
      auto [b, e] = g.tasks.update_range(k);
      for (int id = b; id + 1 < e; ++id) {
        add_edge(g, id, id + 1);
      }
    }
  });
}

/// Column-granularity eforest rules 4 and 5.  On a fully George-Ng-closed
/// block pattern, Theorem 1 guarantees U(parent(i), k) exists whenever
/// U(i, k) does and parent(i) < k; the production pattern is only
/// pairwise-closed (see symbolic/blocks.h), so the rule generalizes to the
/// NEAREST ancestor with an update into k -- the chain skips ancestors
/// whose blocks in column k are structurally absent (nothing to order
/// against there).
void add_eforest_column_rules(TaskGraph& g, const graph::Forest& t, int nb,
                              rt::Team& team) {
  // Fanned out over source stages: each stage owns its update ids' succ
  // lists; the edge TARGETS live in other stages, so their indegrees are
  // bumped atomically.
  team.parallel_for(g.size(), nb, [&](int ib, int ie, int) {
    for (int i = ib; i < ie; ++i) {
      auto [b, e] = g.tasks.update_range(i);
      for (int id = b; id < e; ++id) {
        int k = g.tasks.task(id).j;
        int a = t.parent(i);
        // parent(i) <= k always: parent is the first off-diagonal entry of
        // row i of the block Ubar, and (i, k) is such an entry.
        while (a != graph::kNone && a < k) {
          int next = g.tasks.update_id(a, k);
          if (next != -1) {
            add_edge_atomic_indegree(g, id, next);
            break;
          }
          a = t.parent(a);
        }
        if (a == k) {
          add_edge_atomic_indegree(g, id, g.tasks.factor_id(k));
        }
      }
    }
  });
}

/// Block-granularity eforest rule, the per-block form of rules 4 and 5:
/// UpdateBlock(i, k, j) feeds the update into the same block from the
/// nearest ancestor of k that has one (climbing below min(i, j)), and
/// otherwise the block's consumer.  Each UpdateBlock writes only the
/// structural rows of L_ik, whose writers form eforest chains, so updates
/// from independent subtrees touch disjoint rows and stay unordered, while
/// every row's writers run in ascending source order.
void add_eforest_block_rules(TaskGraph& g, const graph::Forest& t,
                             rt::Team& team) {
  // Each task id's succ list is owned by the lane scanning it; targets are
  // shared across lanes (atomic indegree).
  team.parallel_for(g.size(), g.size(), [&](int ib, int ie, int) {
    for (int id = ib; id < ie; ++id) {
      const Task& u = g.tasks.task(id);
      if (u.kind != TaskKind::kUpdateBlock) continue;
      int next = -1;
      for (int a = t.parent(u.k); a != graph::kNone && a < std::min(u.i, u.j);
           a = t.parent(a)) {
        next = g.tasks.update_block_id(u.i, a, u.j);
        if (next != -1) break;
      }
      if (next == -1) next = consumer_id(g.tasks, u);
      assert(next != -1 && "pairwise closure violated: consumer missing");
      if (next != -1) add_edge_atomic_indegree(g, id, next);
    }
  });
}

/// Operand edges of the block granularity (present under every GraphKind):
/// a stage's diagonal factor feeds its triangular solves, which feed each
/// UpdateBlock they supply.
void add_block_operand_edges(TaskGraph& g, int nb, rt::Team& team) {
  // Every edge of this rule stays inside one stage (sources FD/FL/CU and
  // targets are all stage-k tasks, factor_id(k) == k included), so the
  // fan-out over stages is entirely write-disjoint -- no atomics needed.
  team.parallel_for(g.size(), nb, [&](int kb, int ke, int) {
    for (int k = kb; k < ke; ++k) {
      auto [b, e] = g.tasks.stage_range(k);
      for (int id = b; id < e; ++id) {
        const Task& t = g.tasks.task(id);
        if (t.kind == TaskKind::kUpdateBlock) {
          add_edge(g, g.tasks.factor_l_id(t.i, t.k), id);
          add_edge(g, g.tasks.compute_u_id(t.k, t.j), id);
        } else {
          add_edge(g, g.tasks.factor_id(k), id);
        }
      }
    }
  });
}

/// Per-task flop estimates of the column granularity: the same kernel-flop
/// formulas as taskgraph/costs.cpp (whose TaskCosts additionally carry
/// panel message footprints for the simulator).  Annotated here so the
/// work-stealing executor can weight its critical-path priorities from the
/// graph alone.
void annotate_column_costs(TaskGraph& g, const symbolic::BlockStructure& bs,
                           const std::vector<std::vector<int>>& lblocks,
                           rt::Team& team) {
  const auto& part = bs.part;
  const int nb = bs.num_blocks();
  std::vector<int> prows(nb);
  team.parallel_for(nb, nb, [&](int kb, int ke, int) {
    for (int k = kb; k < ke; ++k) {
      int rows = part.width(k);
      for (int t : lblocks[k]) rows += part.width(t);
      prows[k] = rows;
    }
  });
  g.flops.assign(g.size(), 0.0);
  team.parallel_for(g.size(), g.size(), [&](int ib, int ie, int) {
    for (int id = ib; id < ie; ++id) {
      const Task& t = g.tasks.task(id);
      const int wk = part.width(t.k);
      if (t.kind == TaskKind::kFactor) {
        g.flops[id] = blas::getrf_flops(prows[t.k], wk);
      } else {
        const int wj = part.width(t.j);
        g.flops[id] = blas::trsm_flops(blas::Side::Left, wk, wj) +
                      blas::gemm_flops(prows[t.k] - wk, wj, wk);
      }
    }
  });
  // Floating-point addition is not associative: total_flops is summed
  // sequentially in id order so the parallel build stays bit-identical.
  for (int id = 0; id < g.size(); ++id) g.total_flops += g.flops[id];
}

/// Per-task flop/byte costs of the block granularity (the column cost
/// model, which also needs panel footprints, lives in taskgraph/costs.h).
void annotate_block_costs(TaskGraph& g, const symbolic::BlockStructure& bs,
                          rt::Team& team) {
  const auto& part = bs.part;
  g.flops.assign(g.size(), 0.0);
  g.output_bytes.assign(g.size(), 0.0);
  team.parallel_for(g.size(), g.size(), [&](int ib, int ie, int) {
    for (int id = ib; id < ie; ++id) {
      const Task& t = g.tasks.task(id);
      const int wi = part.width(t.i);
      const int wk = part.width(t.k);
      const int wj = part.width(t.j);
      switch (t.kind) {
        case TaskKind::kFactorDiag:
          g.flops[id] = blas::getrf_flops(wk, wk);
          g.output_bytes[id] = 8.0 * wk * wk;
          break;
        case TaskKind::kFactorL:
          g.flops[id] = blas::trsm_flops(blas::Side::Right, wi, wk);
          g.output_bytes[id] = 8.0 * wi * wk;
          break;
        case TaskKind::kComputeU:
          g.flops[id] = blas::trsm_flops(blas::Side::Left, wk, wj);
          g.output_bytes[id] = 8.0 * wk * wj;
          break;
        case TaskKind::kUpdateBlock:
          g.flops[id] = blas::gemm_flops(wi, wj, wk);
          g.output_bytes[id] = 8.0 * wi * wj;
          break;
        default:
          break;
      }
    }
  });
  // Sequential in-order sum: see annotate_column_costs.
  for (int id = 0; id < g.size(); ++id) g.total_flops += g.flops[id];
}

}  // namespace

TaskGraph build_task_graph(const symbolic::BlockStructure& bs, GraphKind kind,
                           Granularity granularity) {
  // A single-lane team runs every parallel_for inline on this thread, so
  // the sequential entry point is the same code path minus the fan-out.
  rt::Team seq(1);
  return build_task_graph(bs, kind, granularity, seq);
}

TaskGraph build_task_graph(const symbolic::BlockStructure& bs, GraphKind kind,
                           Granularity granularity, rt::Team& team) {
  const int nb = bs.num_blocks();
  std::vector<std::vector<int>> lblocks(nb), ublocks(nb);
  team.parallel_for(bs.bpattern.nnz(), nb, [&](int kb, int ke, int) {
    for (int k = kb; k < ke; ++k) {
      lblocks[k] = bs.l_blocks(k);
      ublocks[k] = bs.u_blocks(k);
    }
  });

  TaskGraph g;
  g.kind = kind;
  g.tasks = granularity == Granularity::kColumn
                ? TaskList(ublocks)
                : TaskList::block_granularity(lblocks, ublocks);
  g.succ.assign(g.size(), {});
  g.indegree.assign(g.size(), 0);

  // Each phase below is barrier-delimited, and within a phase indegree
  // slots are touched either only by their owning stage (plain writes) or
  // only atomically -- the two modes never mix inside one parallel region.
  if (granularity == Granularity::kColumn) {
    // Common rule: F(k) -> U(k, j).  succ[factor_id(k)] and the update ids
    // of stage k are stage-owned, so the fan-out needs no atomics.
    team.parallel_for(g.size(), nb, [&](int kb, int ke, int) {
      for (int k = kb; k < ke; ++k) {
        auto [b, e] = g.tasks.update_range(k);
        for (int id = b; id < e; ++id) {
          add_edge(g, g.tasks.factor_id(k), id);
        }
      }
    });
  } else {
    add_block_operand_edges(g, nb, team);
  }

  if (kind == GraphKind::kSStar || kind == GraphKind::kSStarProgramOrder) {
    // The S* chain rule threads one hash map through the whole task list in
    // id order -- inherently sequential, and cheap relative to the rest.
    add_sstar_chains(g, nb);
    if (kind == GraphKind::kSStarProgramOrder) {
      add_program_order_chains(g, nb, team);
    }
  } else if (granularity == Granularity::kColumn) {
    add_eforest_column_rules(g, bs.beforest, nb, team);
  } else {
    add_eforest_block_rules(g, bs.beforest, team);
  }

  if (granularity == Granularity::kBlock) {
    annotate_block_costs(g, bs, team);
  } else {
    annotate_column_costs(g, bs, lblocks, team);
  }
  return g;
}

TaskGraph build_task_graph_from_compact(const symbolic::CompactStorage& cs,
                                        int num_block_columns) {
  const int nb = num_block_columns;
  assert(cs.size() == nb);
  const graph::Forest& t = cs.eforest();

  // Update sources per target column: the ancestor closure of the column's
  // U-subtree leaves (exactly Section 2's reconstruction).  Collected per
  // target, then regrouped by source for the TaskList layout.
  std::vector<std::vector<int>> u_targets(nb);
  {
    std::vector<int> mark(nb, -1);
    for (int k = 0; k < nb; ++k) {
      for (int leaf : cs.col_leaves(k)) {
        int v = leaf;
        while (v != graph::kNone && v < k && mark[v] != k) {
          mark[v] = k;
          u_targets[v].push_back(k);
          v = t.parent(v);
        }
      }
    }
    for (auto& targets : u_targets) std::sort(targets.begin(), targets.end());
  }

  TaskGraph g;
  g.kind = GraphKind::kEforest;
  g.tasks = TaskList(u_targets);
  g.succ.assign(g.size(), {});
  g.indegree.assign(g.size(), 0);
  for (int i = 0; i < nb; ++i) {
    auto [b, e] = g.tasks.update_range(i);
    const int parent = t.parent(i);
    for (int id = b; id < e; ++id) {
      add_edge(g, g.tasks.factor_id(i), id);
      const int k = g.tasks.task(id).j;
      if (parent == graph::kNone) continue;
      if (parent == k) {
        add_edge(g, id, g.tasks.factor_id(k));
      } else if (parent < k) {
        // Ancestor closure of the reconstruction guarantees the parent's
        // update into k exists -- no climb needed, unlike the raw-pattern
        // construction.
        int next = g.tasks.update_id(parent, k);
        assert(next != -1);
        if (next != -1) add_edge(g, id, next);
      }
    }
  }
  return g;
}

std::vector<int> block_cyclic_owners(const TaskGraph& g, int pr, int pc) {
  std::vector<int> owners(g.size());
  for (int id = 0; id < g.size(); ++id) {
    const Task& t = g.tasks.task(id);
    // Every block-granularity task owns its target block; the column
    // granularity degenerates to the target block column's diagonal.
    owners[id] = (t.i % pr) * pc + (t.j % pc);
  }
  return owners;
}

std::string to_string(GraphKind k) {
  switch (k) {
    case GraphKind::kSStar:
      return "sstar";
    case GraphKind::kSStarProgramOrder:
      return "sstar-program-order";
    case GraphKind::kEforest:
      return "eforest";
  }
  return "?";
}

}  // namespace plu::taskgraph
