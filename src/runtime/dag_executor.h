// Shared-memory execution of a task dependence graph.
//
// Dependences are enforced with atomic indegree counters: a finished task
// decrements each successor's counter (release) and the worker that drops a
// counter to zero acquires the task -- the release/acquire pair on the
// counter makes every predecessor's writes visible before the successor
// runs (see DESIGN.md, "The DAG runtime").  Tasks left unordered by the
// graph (updates from independent subtrees) write disjoint rows -- Theorem
// 4, checked row by row at analysis (symbolic/repartition.h) -- so the
// counters are the only synchronization: the numeric drivers take no
// lock.
//
// Every parallel execution runs on one engine, rt::SharedRuntime
// (runtime/shared_runtime.h): per-worker Chase-Lev deques, successors
// pushed in ascending critical-path priority and popped LIFO, randomized
// stealing, park on a condvar when idle.  A call with ExecOptions::shared
// submits to that persistent pool; any other call builds a transient
// SharedRuntime(num_threads) for the one graph, so there is no
// process-global pool and a nested call cannot deadlock.  Schedule fuzzing
// (ExecOptions::fuzz) is a per-graph policy of the same engine.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "taskgraph/build.h"

namespace plu::rt {

/// Cooperative cancellation of a DAG execution.  Any task body (or an
/// outside observer) may call cancel(); from then on the executors stop
/// releasing dependences, so every already-queued task drains WITHOUT
/// running and no new task becomes ready.  Tasks already in flight finish
/// normally -- nothing is interrupted mid-kernel, so the shared state a
/// task was mutating is never torn.  The numeric drivers use this to stop
/// the factorization at the first pivot breakdown (core/status.h).
class CancelToken {
 public:
  void cancel() noexcept { flag_.store(true, std::memory_order_release); }
  bool cancelled() const noexcept {
    return flag_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> flag_{false};
};

struct ExecutionReport {
  long tasks_run = 0;
  bool completed = false;  // false if the graph was cyclic or cancelled
  bool cancelled = false;  // the run was stopped by a CancelToken (or by a
                           // worker exception, which cancels before rethrow)
};

class SharedRuntime;  // runtime/shared_runtime.h: the DAG runtime

/// Schedule perturbation for testing: whenever a worker takes one of the
/// graph's tasks it runs a seed-determined RANDOM task from the graph's
/// whole ready set instead of the one the priorities chose, after a random
/// delay, so repeated runs explore many legal interleavings of the
/// unordered tasks (the ones Theorem 4 leaves unordered).  Used by the
/// concurrency-correctness tier (tests/test_race_harness.cpp, ctest -L
/// sanitize).
struct FuzzOptions {
  std::uint64_t seed = 1;
  /// Maximum injected pre-task delay in microseconds (uniform in
  /// [0, max_delay_us]; 0 disables delays and only randomizes the pick).
  int max_delay_us = 50;
};

/// Placement, priority, cancellation and fuzzing policy of one execution.
struct ExecOptions {
  /// When set, the graph is submitted to this persistent multi-DAG pool and
  /// the calling thread blocks until it completes, so DAGs from concurrent
  /// callers interleave on one set of workers (the solver-service path) and
  /// `num_threads` is ignored.  Otherwise a transient pool of `num_threads`
  /// workers runs the graph.
  SharedRuntime* shared = nullptr;
  /// Per-request priority fold for the shared runtime: added to this
  /// graph's normalized critical-path priorities, so a caller can bias the
  /// pool toward (or away from) its request.  Ignored without `shared`.
  double request_priority = 0.0;
  /// Per-task priorities, higher = schedule earlier (size n or empty).
  /// When empty, execute_task_graph derives critical-path bottom levels
  /// from the graph's flop annotations; execute_dag treats all tasks equal.
  const std::vector<double>* priorities = nullptr;
  /// Optional cooperative cancellation: when the token is cancelled the
  /// executor stops releasing dependences and drains queued tasks without
  /// running them (ExecutionReport::cancelled).  A worker exception cancels
  /// the same token, so the caller can observe WHY a run stopped early.
  CancelToken* cancel = nullptr;
  /// Schedule fuzzing for this graph (null = off); overrides the priority
  /// order.  Must outlive the call.
  const FuzzOptions* fuzz = nullptr;
};

/// Executes the graph on `num_threads` threads, invoking run(task_id) for
/// each task after all its predecessors finished, with critical-path
/// priorities from the graph's flop annotations unless `opt` says otherwise.
///
/// Worker-exception safety: if run(id) throws, the exception is captured
/// via std::exception_ptr, the execution is cancelled (queued tasks drain
/// without running, dependences stop being released), the run retires (no
/// worker touches it again), and the exception is RETHROWN on the calling
/// thread -- never
/// std::terminate.  When several in-flight tasks throw, the exception of
/// the lowest task id among those that actually ran wins, so a single
/// failing task reports deterministically across schedules.
ExecutionReport execute_task_graph(const taskgraph::TaskGraph& g, int num_threads,
                                   const std::function<void(int)>& run,
                                   const ExecOptions& opt = {});

/// Graph-shape-agnostic variant: any DAG as successor lists + indegrees
/// (execute_task_graph runs its graphs through it).  A
/// cyclic graph runs the acyclic prefix exactly once and reports
/// completed == false.
ExecutionReport execute_dag(const std::vector<std::vector<int>>& succ,
                            const std::vector<int>& indegree, int num_threads,
                            const std::function<void(int)>& run,
                            const ExecOptions& opt = {});

/// Sequential reference execution in a given topological order (or the
/// default one when `order` is empty).
ExecutionReport execute_sequential(const taskgraph::TaskGraph& g,
                                   const std::function<void(int)>& run,
                                   const std::vector<int>& order = {});

}  // namespace plu::rt
