// A persistent work-stealing pool that executes MANY task dependence graphs
// concurrently -- the multi-DAG runtime under the solver service
// (src/service/solver_service.h).
//
// The single-DAG executors in runtime/dag_executor.h spin a fresh worker
// team per execute() call, which is right for one factorization but wrong
// for a server: N in-flight requests would run N uncoordinated teams,
// oversubscribing the machine and giving the OS scheduler -- not the
// critical-path priorities -- the final say.  SharedRuntime keeps ONE team
// alive for the process and lets any thread submit() a DAG; tasks from all
// active graphs interleave freely on the same Chase-Lev deques
// (runtime/work_steal_deque.h), so a wide graph soaks up workers a narrow
// graph cannot use and a small request's tasks are stolen out from under a
// big one instead of waiting behind it.
//
// Scheduling.  Each deque item packs (graph slot, task id) into 64 bits.  A
// worker that releases successors pushes them onto its OWN deque in
// ascending priority order and pops LIFO -- the same critical-path diving as
// the single-DAG engine.  Per-graph priorities are NORMALIZED bottom levels
// (divided by the graph's maximum) plus the submitter's per-request boost,
// so a huge matrix's raw flop counts cannot drown out a small request's
// critical path: across graphs, priorities compare on [boost, boost + 1]
// regardless of problem size (the fair-share half of the scheme; admission
// fairness lives in the service's orchestrator lanes).  New graphs enter
// through a FIFO injection queue that idle workers drain after their own
// deque and steals come up empty, so submission order is respected across
// requests of equal standing.  Steals pick two random victims plus a full
// sweep; unlike the single-DAG engine there is NO priority peek -- a peeked
// item may belong to a graph that completed (and was freed) between the
// peek and the priority lookup, and the hint is not worth a lifetime rule.
//
// Lifetime of a graph.  `outstanding` counts a graph's queued-or-running
// tasks; items only exist in deques while outstanding > 0, and the worker
// that drops it to zero retires the graph (fills the report, wakes waiters,
// frees the slot).  Dereferencing a popped item is therefore always safe:
// the item itself holds the graph live.
//
// Cancellation and errors keep the dag_executor.h contract: a cancelled
// token makes queued tasks drain unrun, a throwing task cancels its OWN
// graph only (other graphs are untouched) and the exception is rethrown on
// the thread that calls Run::wait().  Task bodies must never block on the
// runtime that is executing them (no nested submit-and-wait from a task).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/dag_executor.h"
#include "runtime/work_steal_deque.h"

namespace plu::rt {

class SharedRuntime {
 public:
  /// One DAG submission.  `succ` and `indegree` (and `cancel`, when given)
  /// must stay alive until the run completes -- submitters that do not
  /// wait() must guarantee this some other way.
  struct GraphSpec {
    const std::vector<std::vector<int>>* succ = nullptr;
    const std::vector<int>* indegree = nullptr;
    std::function<void(int)> run;
    /// Raw per-task priorities (bottom levels); normalized internally.
    /// nullptr = no intra-graph priority order.
    const std::vector<double>* priorities = nullptr;
    /// Per-request priority fold: added to every normalized task priority.
    double boost = 0.0;
    /// Cooperative cancellation, same semantics as ExecOptions::cancel.
    CancelToken* cancel = nullptr;
  };

  /// Handle to one submitted graph.
  class Run {
   public:
    /// Blocks until the graph completed, drained after cancellation, or
    /// stalled on a cycle.  Rethrows the first worker exception (lowest
    /// task id wins), matching execute_task_graph.
    ExecutionReport wait();
    bool done() const;

   private:
    friend class SharedRuntime;
    Run() = default;

    const std::vector<std::vector<int>>* succ_ = nullptr;
    std::function<void(int)> body_;
    std::vector<double> prio_;  // normalized + boosted; empty = unordered
    std::vector<std::atomic<int>> indeg_;
    CancelToken own_cancel_;
    CancelToken* cancel_ = nullptr;
    int n_ = 0;
    int slot_ = -1;
    std::atomic<long> outstanding_{0};
    std::atomic<long> done_count_{0};

    std::mutex err_mu_;
    int err_task_ = 0;
    std::exception_ptr error_;

    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool finished_ = false;
    ExecutionReport report_;
  };

  /// `threads` workers (min 1); at most `max_graphs` DAGs in flight --
  /// further submits block until a slot frees (admission backpressure).
  explicit SharedRuntime(int threads, int max_graphs = 256);

  /// Waits for every submitted graph to finish, then stops the workers.
  ~SharedRuntime();

  SharedRuntime(const SharedRuntime&) = delete;
  SharedRuntime& operator=(const SharedRuntime&) = delete;

  int threads() const { return static_cast<int>(workers_.size()); }
  /// Graphs retired since construction (completed, cancelled, or cyclic).
  long graphs_completed() const {
    return graphs_completed_.load(std::memory_order_relaxed);
  }

  std::shared_ptr<Run> submit(GraphSpec spec);

  /// submit() + wait(): the drop-in blocking shape execute_task_graph
  /// routes through when ExecOptions::shared is set.
  ExecutionReport run_graph(GraphSpec spec) { return submit(std::move(spec))->wait(); }

 private:
  struct alignas(64) Worker {
    Worker(int id_, std::uint64_t seed) : id(id_), rng_state(seed) {}
    const int id;
    WorkStealDeque64 deque;
    std::uint64_t rng_state;
    std::vector<int> ready;  // scratch for newly released successors
    std::thread thread;
  };

  static std::int64_t pack(int slot, int task) {
    return (static_cast<std::int64_t>(slot) << 32) |
           static_cast<std::int64_t>(static_cast<std::uint32_t>(task));
  }

  std::uint64_t next_rand(Worker& me) {
    // xorshift64*: per-worker, no allocation, good enough for victim picks.
    std::uint64_t x = me.rng_state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    me.rng_state = x;
    return x * 0x2545F4914F6CDD1Dull;
  }

  void worker_loop(int tid);
  void run_item(Worker& me, std::int64_t item);
  void finish_run(Run* r);
  std::int64_t steal(Worker& me);
  std::int64_t take_injected();
  bool work_visible() const;
  void idle(Worker& me);
  void wake_workers();

  const int max_graphs_;
  std::vector<std::unique_ptr<Worker>> workers_;

  // Slot table: workers dereference slots_[item.slot] lock-free; ownership
  // (and slot recycling) is tracked under reg_mu_.
  std::unique_ptr<std::atomic<Run*>[]> slots_;
  std::mutex reg_mu_;
  std::condition_variable slot_cv_;   // submitters waiting for a free slot
  std::condition_variable drain_cv_;  // destructor waiting for active == 0
  std::vector<std::shared_ptr<Run>> owners_;  // keeps unwaited runs alive
  std::vector<int> free_slots_;
  int active_ = 0;

  // FIFO injection queue: roots of newly submitted graphs (workers own
  // their deques, so a submitter cannot push into them directly).
  std::mutex inject_mu_;
  std::deque<std::int64_t> inject_;
  std::atomic<long> inject_count_{0};

  // Park/wake protocol, same epoch scheme as the single-DAG engine.
  std::atomic<bool> shutdown_{false};
  std::atomic<std::uint64_t> wake_epoch_{0};
  std::atomic<int> sleepers_{0};
  std::mutex park_mu_;
  std::condition_variable park_cv_;

  std::atomic<long> graphs_completed_{0};
};

}  // namespace plu::rt
