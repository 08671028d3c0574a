// Task dependence graph construction (Section 4), at either task
// granularity.  The dependence RULES are written once and shared; the
// granularity only decides what a "target" is (a block column or a single
// block) and which task consumes it.
//
// Column granularity -- two rule sets over the Factor/Update tasks:
//
//   kSStar (baseline, Fu & Yang's S*, minimal reading): updates into each
//   target are chained in ascending source index, and the target's consumer
//   waits for the whole chain --
//     F(k) -> U(k, j)                      for every update task
//     U(k1, j) -> U(k2, j)                 for consecutive sources k1 < k2
//     U(k_last, j) -> F(j)
//
//   kSStarProgramOrder (baseline, sequential-loop reading): kSStar plus the
//   program order of the reference algorithm's inner loop -- panel k's
//   updates are chained U(k, j) -> U(k, j') for consecutive targets j < j'.
//   The paper's description of S* ("the dependences between U(k,j) tasks
//   are given by the ascending order of the indices") is ambiguous between
//   the two readings (the scan of Figure 4(b) is unreadable); both are
//   provided and both are measured.  Under a work-conserving critical-path
//   scheduler the minimal reading costs almost nothing on these matrices,
//   while the program-order reading reproduces the improvement band the
//   paper reports (see EXPERIMENTS.md).
//
//   kEforest (the paper's contribution): only the least necessary
//   dependences, derived from the LU eforest T(B) of the block pattern --
//     F(i) -> U(i, k)                      for every update task      (rule 3)
//     U(i, k) -> U(i', k)  iff i' = parent(i) in T(B)                 (rule 4)
//     U(i, k) -> F(k)      iff k  = parent(i) in T(B)                 (rule 5)
//   Updates whose sources lie in independent subtrees are unordered: each
//   Update(k, j) writes only the structural rows of panel k in column j
//   (symbolic::ColumnPlan::row_runs), and Theorem 2 row by row makes the
//   writers of every row an eforest chain (checked at analysis,
//   symbolic::row_writer_chain_violations), so unordered updates touch
//   disjoint rows.  Updates from an earlier tree never chain into F(k) at
//   all -- they write rows outside k's panel, and their consumers U(t, k)
//   are reached through rule 4.
//
// Block granularity (2-D decomposition; the paper's first future-work item,
// realized later by S+ 2.0) -- the operand edges are common to all kinds:
//     FD(k) -> FL(i, k) and FD(k) -> CU(k, j);
//     FL(i, k) -> UB(i, k, j), CU(k, j) -> UB(i, k, j);
// and the target ordering reuses the SAME rules as above, with the target
// now an individual block (i, j) and its consumer FD(j) when i == j, FL(i,
// j) when i > j, CU(i, j) when i < j:
//
//   kEforest: rules 4 and 5 per target block --
//     UB(i, k, j) -> UB(i, a, j)   a = the nearest ancestor of k in T(B)
//                                  below min(i, j) with an update into
//                                  block (i, j);
//     UB(i, k, j) -> consumer(i, j) when there is no such ancestor.
//   Like Update(k, j) in 1-D, an UpdateBlock writes only the structural
//   rows of L_ik, so updates from independent subtrees touch disjoint rows
//   of the block and stay unordered, while the writers of every row form
//   one ascending chain: the summation order is the sequential one, the
//   2-D driver takes no lock, and its threaded factors are reproducible.
//
//   kSStar / kSStarProgramOrder: the S* chain rule verbatim -- updates into
//   each block chained by ascending source, chain tail -> consumer.  This
//   serializes the additive gemms per block, the same trade S* makes in
//   1-D.
#pragma once

#include "symbolic/blocks.h"
#include "symbolic/compact_storage.h"
#include "taskgraph/tasks.h"

namespace plu::taskgraph {

enum class GraphKind { kSStar, kSStarProgramOrder, kEforest };

struct TaskGraph {
  TaskList tasks;
  GraphKind kind = GraphKind::kEforest;
  std::vector<std::vector<int>> succ;  // successors by task id
  std::vector<int> indegree;
  /// Per-task flop estimates, filled by build_task_graph at BOTH
  /// granularities -- they weight the critical-path (bottom-level)
  /// priorities of the work-stealing executor (rt::execute_task_graph).
  /// The full column-granularity cost model (which also carries panel
  /// message footprints for the simulator) lives in taskgraph/costs.h;
  /// build_task_graph_from_compact has no block widths and leaves this
  /// empty.
  std::vector<double> flops;
  /// Per-task output footprint, filled at BLOCK granularity only.
  std::vector<double> output_bytes;
  double total_flops = 0.0;

  Granularity granularity() const { return tasks.granularity(); }
  int size() const { return tasks.size(); }
  long num_edges() const;
};

TaskGraph build_task_graph(const symbolic::BlockStructure& bs, GraphKind kind,
                           Granularity granularity = Granularity::kColumn);

/// Team-parallel variant.  Per-stage edge lists are built concurrently
/// (succ vectors are stage-owned so their ordering is preserved; cross-stage
/// indegree bumps are commutative atomic increments) and the cost
/// annotation fans out per task with a sequential in-order total, so the
/// graph -- edges, ordering, indegrees, flops, total -- is bit-identical to
/// the sequential build.  The S* chain rule itself stays sequential (a hash
/// map threaded in id order).
TaskGraph build_task_graph(const symbolic::BlockStructure& bs, GraphKind kind,
                           Granularity granularity, rt::Team& team);

/// The paper's third future-work item: "use the extended LU eforest for
/// more effective task dependence representation".  This builds the SAME
/// eforest dependence graph as build_task_graph(kEforest), but derives the
/// task set and the edges from the compact eforest annotations of Section 2
/// (per-row first L nonzeros and per-column U-subtree leaves) instead of
/// the explicit block pattern:
///   * the updates into column k are the ancestor-closure of the column's
///     leaves (Theorems 1-2), reconstructed by climbing parent pointers;
///   * rule 4/5 edges fall out of the same climb.
/// Tests assert graph equality with the pattern-based construction -- the
/// compact annotations carry exactly the dependence information.
TaskGraph build_task_graph_from_compact(const symbolic::CompactStorage& cs,
                                        int num_block_columns);

/// 2-D block-cyclic owner map for a pr x pc process grid over a
/// block-granularity graph: a task with target block (i, j) runs on
/// (i mod pr) * pc + (j mod pc).  FactorDiag, FactorL and ComputeU own
/// their output block; UpdateBlock owns (i, j).
std::vector<int> block_cyclic_owners(const TaskGraph& g, int pr, int pc);

std::string to_string(GraphKind k);

}  // namespace plu::taskgraph
