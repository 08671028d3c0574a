// Cost model for tasks: flop counts from the dense-kernel formulas plus the
// panel message size for the communication model.  These weights drive both
// the critical-path analysis and the discrete-event machine simulator.
#pragma once

#include <vector>

#include "runtime/parallel_for.h"
#include "symbolic/blocks.h"
#include "taskgraph/tasks.h"

namespace plu::taskgraph {

struct TaskCosts {
  /// flops[id]: arithmetic work of task id.
  std::vector<double> flops;
  /// panel_bytes[k]: size of factored panel k (the message Update(k, j)
  /// needs when the owner of j differs from the owner of k).
  std::vector<double> panel_bytes;
  /// output_bytes[id]: data the task produces that a consumer on another
  /// processor must fetch -- the factored panel for Factor(k), the written
  /// column footprint for Update(k, j).
  std::vector<double> output_bytes;
  double total_flops = 0.0;
};

/// Computes task costs for a task list over a block structure.
///   Factor(k): getrf on the packed (panel_rows x width) panel.
///   Update(k, j): pivot-swap bookkeeping (ignored) + trsm(width_k, width_j)
///                 + gemm over the L row blocks of panel k.
TaskCosts compute_task_costs(const symbolic::BlockStructure& bs,
                             const TaskList& tasks);

/// Forwards to the overload above; kept for perfbench/traced.cpp.
inline TaskCosts compute_task_costs(const symbolic::BlockStructure& bs,
                                    const TaskList& tasks, rt::Team&) {
  return compute_task_costs(bs, tasks);
}

/// Rows of the packed panel of block column k: its own width plus the widths
/// of its L row blocks.
int panel_rows(const symbolic::BlockStructure& bs, int k);

}  // namespace plu::taskgraph
