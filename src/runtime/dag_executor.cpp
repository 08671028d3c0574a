#include "runtime/dag_executor.h"

#include <utility>

#include "runtime/shared_runtime.h"
#include "taskgraph/analysis.h"

namespace plu::rt {

ExecutionReport execute_dag(const std::vector<std::vector<int>>& succ,
                            const std::vector<int>& indegree, int num_threads,
                            const std::function<void(int)>& run,
                            const ExecOptions& opt) {
  // The graph outlives the run: this call keeps succ/indegree/run alive
  // until run_graph returns, and wait() rethrows any worker exception here.
  SharedRuntime::GraphSpec spec;
  spec.succ = &succ;
  spec.indegree = &indegree;
  spec.run = run;
  spec.priorities = opt.priorities;
  spec.boost = opt.request_priority;
  spec.cancel = opt.cancel;
  spec.fuzz = opt.fuzz;
  if (opt.shared != nullptr) return opt.shared->run_graph(std::move(spec));
  // A private pool for this one graph: torn down on return, so nothing
  // outlives the call and a task body may itself call execute_dag.
  SharedRuntime pool(num_threads, /*max_graphs=*/1);
  return pool.run_graph(std::move(spec));
}

ExecutionReport execute_task_graph(const taskgraph::TaskGraph& g, int num_threads,
                                   const std::function<void(int)>& run,
                                   const ExecOptions& opt) {
  if (g.size() != 0 && !taskgraph::is_acyclic(g)) return {};
  // Critical-path priority layer, computed once per execution: bottom
  // levels over the flop annotations taskgraph::build attaches at either
  // granularity (a task's priority is the weighted longest path from it to
  // a sink -- the classic list-scheduling priority).
  if (opt.priorities == nullptr &&
      g.flops.size() == static_cast<std::size_t>(g.size())) {
    std::vector<double> prio = taskgraph::bottom_levels(g, g.flops);
    ExecOptions with_prio = opt;
    with_prio.priorities = &prio;
    return execute_dag(g.succ, g.indegree, num_threads, run, with_prio);
  }
  return execute_dag(g.succ, g.indegree, num_threads, run, opt);
}

ExecutionReport execute_sequential(const taskgraph::TaskGraph& g,
                                   const std::function<void(int)>& run,
                                   const std::vector<int>& order) {
  ExecutionReport rep;
  std::vector<int> topo = order.empty() ? taskgraph::topological_order(g) : order;
  if (static_cast<int>(topo.size()) != g.size()) return rep;
  for (int id : topo) {
    run(id);
    ++rep.tasks_run;
  }
  rep.completed = true;
  return rep;
}

}  // namespace plu::rt
