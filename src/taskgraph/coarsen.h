// DAG task coarsening: collapse whole low-weight eforest subtrees of the
// task graph into single fused tasks, so the per-task scheduling overhead
// (deque traffic, indegree cache lines, steal attempts) is paid once per
// subtree instead of once per kernel call.  This is what makes many small
// independent trees -- the shape production circuit / multi-physics
// matrices produce -- actually scale on a thread pool.
//
// Grouping rule.  Stage weights w(s) = flops of Factor(s)/FactorDiag(s)
// plus every task with source stage s; subtree weights are accumulated up
// the block eforest.  A stage r is a FUSED ROOT when its subtree weight is
// <= threshold while its parent's subtree weight exceeds it (or r is a
// tree root): the whole subtree T[r] becomes one group executing its
// member tasks in the sequential right-looking order.  Every other stage
// contributes its tasks as singleton groups, so the large tasks keep full
// graph parallelism.  The threshold is adaptive by default:
// min(total_flops / (threads * target_tasks_per_thread), 0.5 * critical
// path), i.e. fuse until roughly target_tasks_per_thread tasks per thread
// remain, but never fuse anything holding half the critical path.
//
// Why the coarse graph is acyclic.  Applicability is gated on the eforest
// graph kind AND a postordered block eforest, so every fused subtree is a
// CONTIGUOUS stage interval [r - |T[r]| + 1, r] and distinct groups cover
// disjoint intervals.  Every cross-stage edge of the eforest graph goes
// from a stage to one of its ANCESTOR stages (1-D rules 4/5 target
// parent(s); a 2-D UpdateBlock's consumer lives at stage min(i, j), an
// ancestor of the source stage), hence from a group to a group whose
// interval starts strictly later.  Group ids are assigned scanning stages
// ascending, so EVERY coarse edge goes from a lower to a higher group id
// -- the id order is a topological order by construction (the builder
// throws if any edge violates it).
//
// Determinism (the bitwise-identity contract).  Contraction only ADDS
// ordering, so any coarse schedule is a legal schedule of the original
// graph, and the original graph already orders every pair of writers of
// one entry in sequential order: 1-D updates write only their structural
// rows, whose writers form eforest chains, and 2-D updates into one block
// are chained in ascending source (taskgraph/build.h).  So coarsened
// threaded execution reproduces ExecutionMode::kSequential bit for bit at
// any thread count, exactly as uncoarsened execution does.
#pragma once

#include <vector>

#include "symbolic/blocks.h"
#include "symbolic/repartition.h"
#include "taskgraph/build.h"

namespace plu::taskgraph {

struct CoarsenOptions {
  /// Worker count the adaptive threshold is derived for.
  int threads = 1;
  /// Explicit fusion threshold in flops; <= 0 selects the adaptive one.
  double threshold_flops = 0.0;
  /// Adaptive target: fuse until ~this many coarse tasks per thread remain.
  int target_tasks_per_thread = 48;
  /// Structure-aware blocking plan (symbolic/repartition.h), or nullptr.
  /// When present it refines the SCHEDULE only -- factor bits never move:
  ///   * task weights become density-effective flops (costs.h), so
  ///     closure-padded sparse subtrees stop being overweighted;
  ///   * when the task count shows the DAG itself is the bottleneck
  ///     (tasks > threads * target_tasks_per_thread *
  ///     tunables::kDagBoundTaskFactor), whole subtrees of TINY supernodes
  ///     (width <= the plan's tiny_width_cap) fuse beyond the flop
  ///     threshold, up to kTinyMergeFlopFactor times it -- merging past
  ///     the amalgamation cap at the TASK level, where it cannot change
  ///     getrf panel shapes.
  const symbolic::BlockPlan* plan = nullptr;
};

/// Summary of one coarsening application, surfaced through
/// NumericRun/Factorization into FactorizationReport.
struct CoarsenStats {
  bool ran = false;  // false: coarsening was off or not applicable
  int tasks_before = 0;
  long edges_before = 0;
  int tasks_after = 0;
  long edges_after = 0;
  /// Groups that actually fused two or more tasks / the tasks inside them.
  int fused_groups = 0;
  long fused_tasks = 0;
  double threshold_flops = 0.0;
  /// The DAG-bound tiny-merge extension fired (plan present + task count
  /// over the DAG-bound gate) / stages it fused beyond the flop threshold.
  bool dag_bound = false;
  int tiny_merged_stages = 0;
};

/// The contracted graph.  Group ids are a topological order; members of a
/// group are original task ids in sequential right-looking order.
struct CoarseGraph {
  /// False when coarsening is not applicable (non-eforest graph kind,
  /// unordered labels, or no flop annotations); all other fields are then
  /// empty and the caller should execute the original graph.
  bool coarsened = false;
  int num_groups = 0;
  std::vector<int> group_of;            // original task id -> group id
  std::vector<std::vector<int>> members;  // group id -> ordered task ids
  std::vector<std::vector<int>> succ;   // coarse successor lists
  std::vector<int> indegree;
  std::vector<double> flops;            // summed member flops per group
  /// Critical-path bottom levels over the coarse flops -- ready-made
  /// scheduling priorities for rt::ExecOptions::priorities.
  std::vector<double> priorities;
  double threshold_flops = 0.0;
  int fused_groups = 0;   // groups with >= 2 members
  long fused_tasks = 0;   // original tasks inside those groups
  bool dag_bound = false;       // tiny-merge extension was active
  int tiny_merged_stages = 0;   // stages fused beyond the flop threshold
  long num_edges() const;

  /// The stats record for this application (tasks/edges before from `g`).
  CoarsenStats stats(const TaskGraph& g) const;
};

/// Coarsens `g` (built over `bs`) for execution on `opt.threads` workers.
/// Applicable only to GraphKind::kEforest graphs with flop annotations over
/// a postordered block eforest; returns CoarseGraph::coarsened == false
/// otherwise.  Throws std::logic_error if the contraction would produce a
/// non-monotone edge (impossible for the gated inputs; the check guards the
/// acyclicity argument against future graph-kind changes).
CoarseGraph coarsen_task_graph(const TaskGraph& g,
                               const symbolic::BlockStructure& bs,
                               const CoarsenOptions& opt = {});

}  // namespace plu::taskgraph
