// Runtime: the work-stealing deque, DAG execution ordering, cancellation
// and fuzzing guarantees, and the multi-DAG pool and its worker placement.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "core/analysis.h"
#include "runtime/dag_executor.h"
#include "runtime/shared_runtime.h"
#include "runtime/work_steal_deque.h"
#include "test_helpers.h"

namespace plu::rt {
namespace {

TEST(WorkStealDeque, OwnerSideIsLifo) {
  WorkStealDeque d;
  for (int v = 0; v < 5; ++v) d.push(v);
  for (int v = 4; v >= 0; --v) EXPECT_EQ(d.pop(), v);
  EXPECT_EQ(d.pop(), WorkStealDeque::kEmpty);
}

TEST(WorkStealDeque, StealTakesOldestAndPeekAgrees) {
  WorkStealDeque d;
  for (int v = 10; v < 15; ++v) d.push(v);
  EXPECT_EQ(d.steal(), 10);
  EXPECT_EQ(d.steal(), 11);
  EXPECT_EQ(d.pop(), 14);  // owner still takes the newest
  EXPECT_EQ(d.size_hint(), 2);
}

TEST(WorkStealDeque, GrowPreservesLiveRange) {
  // Push far past the initial capacity (16): the ring must grow and keep
  // every queued value, in order, for both ends.
  WorkStealDeque d(16);
  const int kN = 1000;
  for (int v = 0; v < kN; ++v) d.push(v);
  EXPECT_EQ(d.steal(), 0);
  for (int v = kN - 1; v >= 1; --v) EXPECT_EQ(d.pop(), v);
  EXPECT_EQ(d.pop(), WorkStealDeque::kEmpty);
}

TEST(WorkStealDeque, ConcurrentThievesConserveItems) {
  // One owner pushes kN items (popping a few itself along the way), three
  // thieves steal concurrently.  Every item must be taken exactly once:
  // counts[] all end at 1 and pops + steals == kN.
  const int kN = 20000;
  const int kThieves = 3;
  WorkStealDeque d(16);  // small initial ring so grow() runs under contention
  std::vector<std::atomic<int>> counts(kN);
  for (auto& c : counts) c.store(0);
  std::atomic<bool> done{false};
  std::atomic<long> taken{0};
  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&] {
      while (!done.load() || d.size_hint() > 0) {
        const std::int64_t v = d.steal();
        if (v >= 0) {
          counts[v].fetch_add(1);
          taken.fetch_add(1);
        }
      }
    });
  }
  for (int v = 0; v < kN; ++v) {
    d.push(v);
    if (v % 7 == 0) {
      const std::int64_t got = d.pop();
      if (got >= 0) {
        counts[got].fetch_add(1);
        taken.fetch_add(1);
      }
    }
  }
  std::int64_t got;
  while ((got = d.pop()) != WorkStealDeque::kEmpty) {
    counts[got].fetch_add(1);
    taken.fetch_add(1);
  }
  done.store(true);
  for (auto& t : thieves) t.join();
  EXPECT_EQ(taken.load(), kN);
  for (int v = 0; v < kN; ++v) {
    EXPECT_EQ(counts[v].load(), 1) << "item " << v;
  }
}

taskgraph::TaskGraph small_graph(const CscMatrix& a,
                                 taskgraph::GraphKind kind) {
  Options opt;
  opt.task_graph = kind;
  return analyze(a, opt).graph;
}

TEST(DagExecutor, RunsEveryTaskOnce) {
  for (const CscMatrix& a : test::small_matrices()) {
    taskgraph::TaskGraph g = small_graph(a, taskgraph::GraphKind::kEforest);
    std::vector<std::atomic<int>> runs(g.size());
    for (auto& r : runs) r.store(0);
    ExecutionReport rep =
        execute_task_graph(g, 4, [&](int id) { runs[id].fetch_add(1); });
    EXPECT_TRUE(rep.completed);
    EXPECT_EQ(rep.tasks_run, g.size());
    for (int id = 0; id < g.size(); ++id) {
      EXPECT_EQ(runs[id].load(), 1) << "task " << id;
    }
  }
}

TEST(DagExecutor, RespectsDependenceOrder) {
  CscMatrix a = test::small_matrices()[0];
  taskgraph::TaskGraph g = small_graph(a, taskgraph::GraphKind::kSStar);
  // Logical clock: record a finish stamp per task; every edge must observe
  // pred.finish < succ.start.
  std::atomic<long> clock{0};
  std::vector<long> start(g.size()), finish(g.size());
  ExecutionReport rep = execute_task_graph(g, 8, [&](int id) {
    start[id] = clock.fetch_add(1);
    finish[id] = clock.fetch_add(1);
  });
  ASSERT_TRUE(rep.completed);
  for (int u = 0; u < g.size(); ++u) {
    for (int v : g.succ[u]) {
      EXPECT_LT(finish[u], start[v]) << "edge " << u << "->" << v;
    }
  }
}

TEST(DagExecutor, SingleWorkerFollowsCriticalPathPriorities) {
  // Star 0 -> {1, 2, 3, 4} plus three independent roots 5, 6, 7, with
  // explicit priorities.  Roots are injected most critical first and one
  // worker takes them all in one batch, running the first and pushing the
  // rest least critical first; released successors are pushed in ASCENDING
  // priority so the LIFO pop serves the most critical first.  With one
  // worker the order is therefore deterministic: roots by descending
  // priority, each root's released children (pushed above the remaining
  // roots) by descending priority before the next root.
  taskgraph::TaskGraph g;
  g.tasks = taskgraph::TaskList({{}, {}, {}, {}, {}, {}, {}, {}});
  g.succ.assign(8, {});
  g.indegree.assign(8, 0);
  g.succ[0] = {1, 2, 3, 4};
  for (int v = 1; v < 5; ++v) g.indegree[v] = 1;
  std::vector<double> prio = {100.0, 1.0, 5.0, 9.0, 3.0, 50.0, 200.0, 7.0};
  ExecOptions eopt;
  eopt.priorities = &prio;
  std::vector<int> seen;
  ExecutionReport rep =
      execute_task_graph(g, 1, [&](int id) { seen.push_back(id); }, eopt);
  ASSERT_TRUE(rep.completed);
  EXPECT_EQ(seen, (std::vector<int>{6, 0, 3, 2, 4, 1, 5, 7}));
}

TEST(DagExecutor, StealHeavyUnbalancedDagRunsCorrectly) {
  // Worst case for stealing: one root releases a wide fan of leaves plus a
  // long serial chain.  The owner dives down the chain (LIFO keeps it
  // local); every other worker must STEAL the fan tasks.  Checks the full
  // once-each + ordering contract under that pressure, repeatedly.
  const int kWide = 256, kChain = 64;
  const int n = 1 + kWide + kChain;
  std::vector<std::vector<int>> succ(n);
  std::vector<int> indegree(n, 1);
  indegree[0] = 0;
  for (int w = 0; w < kWide; ++w) succ[0].push_back(1 + w);
  succ[0].push_back(1 + kWide);  // chain head
  for (int c = 0; c + 1 < kChain; ++c) {
    succ[1 + kWide + c] = {1 + kWide + c + 1};
  }
  for (int round = 0; round < 10; ++round) {
    std::vector<std::atomic<int>> runs(n);
    for (auto& r : runs) r.store(0);
    std::atomic<long> clock{0};
    std::vector<long> start(n), finish(n);
    ExecutionReport rep = execute_dag(succ, indegree, 4, [&](int id) {
      start[id] = clock.fetch_add(1);
      runs[id].fetch_add(1);
      finish[id] = clock.fetch_add(1);
    });
    ASSERT_TRUE(rep.completed) << "round " << round;
    ASSERT_EQ(rep.tasks_run, n);
    for (int id = 0; id < n; ++id) {
      ASSERT_EQ(runs[id].load(), 1) << "round " << round << " task " << id;
    }
    for (int u = 0; u < n; ++u) {
      for (int v : succ[u]) ASSERT_LT(finish[u], start[v]);
    }
  }
}

TEST(DagExecutor, CyclicGraphRunsAcyclicPrefixOnceAndReportsIncomplete) {
  // 0 -> 1, 1 -> 2, 2 -> 1: task 0 is runnable, the 1-2 cycle is not.
  // execute_dag (no up-front acyclicity check) must run the acyclic prefix
  // exactly once, never run a cyclic task, and report completed == false
  // (negative control for the termination counter: outstanding_ drains
  // when the prefix does, without the cycle).
  std::vector<std::vector<int>> succ = {{1}, {2}, {1}};
  std::vector<int> indegree = {0, 2, 1};
  std::vector<std::atomic<int>> runs(3);
  for (auto& r : runs) r.store(0);
  ExecutionReport rep =
      execute_dag(succ, indegree, 4, [&](int id) { runs[id].fetch_add(1); });
  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.tasks_run, 1);
  EXPECT_EQ(runs[0].load(), 1);
  EXPECT_EQ(runs[1].load(), 0);
  EXPECT_EQ(runs[2].load(), 0);
}

TEST(DagExecutor, DetectsCycle) {
  taskgraph::TaskGraph g;
  g.tasks = taskgraph::TaskList({{1}, {}});
  g.succ.assign(g.size(), {});
  g.indegree.assign(g.size(), 0);
  g.succ[0] = {1};
  g.succ[1] = {0};
  g.indegree[0] = 1;
  g.indegree[1] = 1;
  ExecutionReport rep = execute_task_graph(g, 2, [](int) {});
  EXPECT_FALSE(rep.completed);
}

// Fuzzed execution (ExecOptions::fuzz): the production runtime with a
// seeded random pick among the ready tasks and pre-task delays.

TEST(FuzzedExecutor, RunsEveryTaskOnceAcrossSeeds) {
  CscMatrix a = test::small_matrices()[0];
  taskgraph::TaskGraph g = small_graph(a, taskgraph::GraphKind::kEforest);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    FuzzOptions fuzz;
    fuzz.seed = seed;
    fuzz.max_delay_us = 5;
    ExecOptions eopt;
    eopt.fuzz = &fuzz;
    std::vector<std::atomic<int>> runs(g.size());
    for (auto& r : runs) r.store(0);
    ExecutionReport rep = execute_task_graph(
        g, 4, [&](int id) { runs[id].fetch_add(1); }, eopt);
    ASSERT_TRUE(rep.completed) << "seed " << seed;
    EXPECT_EQ(rep.tasks_run, g.size());
    for (int id = 0; id < g.size(); ++id) {
      EXPECT_EQ(runs[id].load(), 1) << "seed " << seed << " task " << id;
    }
  }
}

TEST(FuzzedExecutor, RespectsDependenceOrder) {
  CscMatrix a = test::small_matrices()[1];
  taskgraph::TaskGraph g = small_graph(a, taskgraph::GraphKind::kEforest);
  for (std::uint64_t seed : {3ull, 17ull}) {
    FuzzOptions fuzz;
    fuzz.seed = seed;
    ExecOptions eopt;
    eopt.fuzz = &fuzz;
    std::atomic<long> clock{0};
    std::vector<long> start(g.size()), finish(g.size());
    ExecutionReport rep = execute_task_graph(g, 8, [&](int id) {
      start[id] = clock.fetch_add(1);
      finish[id] = clock.fetch_add(1);
    }, eopt);
    ASSERT_TRUE(rep.completed);
    for (int u = 0; u < g.size(); ++u) {
      for (int v : g.succ[u]) {
        EXPECT_LT(finish[u], start[v]) << "seed " << seed << " edge " << u
                                       << "->" << v;
      }
    }
  }
}

TEST(FuzzedExecutor, DistinctSeedsProduceDistinctInterleavings) {
  // Not a hard guarantee per pair of seeds, but across a graph with real
  // parallelism and several seeds at least two completion orders must
  // differ -- otherwise the fuzzer isn't perturbing anything.
  CscMatrix a = test::small_matrices()[0];
  taskgraph::TaskGraph g = small_graph(a, taskgraph::GraphKind::kEforest);
  std::vector<std::vector<int>> orders;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    FuzzOptions fuzz;
    fuzz.seed = seed;
    fuzz.max_delay_us = 0;  // random picks only
    ExecOptions eopt;
    eopt.fuzz = &fuzz;
    std::vector<int> order;
    std::mutex mu;
    ExecutionReport rep = execute_task_graph(g, 2, [&](int id) {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(id);
    }, eopt);
    ASSERT_TRUE(rep.completed);
    orders.push_back(std::move(order));
  }
  bool any_differ = false;
  for (std::size_t i = 1; i < orders.size(); ++i) {
    if (orders[i] != orders[0]) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(FuzzedExecutor, DetectsCycleAndRunsNoTaskTwice) {
  std::vector<std::vector<int>> succ = {{1}, {2}, {1}};
  std::vector<int> indegree = {0, 2, 1};
  FuzzOptions fuzz;
  fuzz.seed = 11;
  ExecOptions eopt;
  eopt.fuzz = &fuzz;
  std::vector<std::atomic<int>> runs(3);
  for (auto& r : runs) r.store(0);
  ExecutionReport rep = execute_dag(
      succ, indegree, 4, [&](int id) { runs[id].fetch_add(1); }, eopt);
  EXPECT_FALSE(rep.completed);
  EXPECT_EQ(rep.tasks_run, 1);
  for (int id = 0; id < 3; ++id) EXPECT_LE(runs[id].load(), 1);
}

TEST(FuzzedExecutor, EmptyGraphCompletes) {
  FuzzOptions fuzz;
  ExecOptions eopt;
  eopt.fuzz = &fuzz;
  ExecutionReport rep = execute_dag({}, {}, 4, [](int) {}, eopt);
  EXPECT_TRUE(rep.completed);
  EXPECT_EQ(rep.tasks_run, 0);
}

TEST(DagExecutor, ThrowingTaskCancelsDownstreamAndRethrows) {
  // Chain 0 -> 1 -> 2 -> ... plus a wide fan off the root.  Task 1 throws:
  // the executor must rethrow the exception on the calling thread (never
  // std::terminate), and every task downstream of the thrower must drain
  // WITHOUT running.  The fan tasks may or may not run (they were already
  // released); the chain after the thrower must not.
  const int kWide = 64, kChain = 16;
  const int n = 1 + kWide + kChain;
  std::vector<std::vector<int>> succ(n);
  std::vector<int> indegree(n, 1);
  indegree[0] = 0;
  for (int w = 0; w < kWide; ++w) succ[0].push_back(1 + kChain + w);
  succ[0].push_back(1);  // chain: 1 -> 2 -> ... -> kChain
  for (int c = 1; c < kChain; ++c) succ[c] = {c + 1};
  ExecOptions eopt;
  CancelToken token;
  eopt.cancel = &token;
  std::vector<std::atomic<int>> runs(n);
  for (auto& r : runs) r.store(0);
  bool threw = false;
  try {
    execute_dag(succ, indegree, 4, [&](int id) {
      runs[id].fetch_add(1);
      if (id == 1) throw std::runtime_error("pivot breakdown in task 1");
    }, eopt);
  } catch (const std::runtime_error& e) {
    threw = true;
    EXPECT_STREQ(e.what(), "pivot breakdown in task 1");
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(token.cancelled());
  for (int c = 2; c <= kChain; ++c) {
    EXPECT_EQ(runs[c].load(), 0) << "chain task " << c << " ran after the throw";
  }
  for (int id = 0; id < n; ++id) {
    EXPECT_LE(runs[id].load(), 1) << "task " << id;
  }
}

TEST(DagExecutor, PreCancelledTokenDrainsWithoutRunning) {
  CscMatrix a = test::small_matrices()[0];
  taskgraph::TaskGraph g = small_graph(a, taskgraph::GraphKind::kEforest);
  ExecOptions eopt;
  CancelToken token;
  token.cancel();
  eopt.cancel = &token;
  std::atomic<int> ran{0};
  ExecutionReport rep =
      execute_task_graph(g, 4, [&](int) { ran.fetch_add(1); }, eopt);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_FALSE(rep.completed);
  EXPECT_TRUE(rep.cancelled);
}

TEST(DagExecutor, CancelFromInsideATaskStopsDependenceRelease) {
  // 0 -> 1 -> 2: task 0 cancels the token mid-run.  Its successors must
  // never become ready, and the run must still terminate (outstanding_
  // drains through the skipped tasks).
  std::vector<std::vector<int>> succ = {{1}, {2}, {}};
  std::vector<int> indegree = {0, 1, 1};
  ExecOptions eopt;
  CancelToken token;
  eopt.cancel = &token;
  std::vector<std::atomic<int>> runs(3);
  for (auto& r : runs) r.store(0);
  ExecutionReport rep = execute_dag(succ, indegree, 2, [&](int id) {
    runs[id].fetch_add(1);
    if (id == 0) token.cancel();
  }, eopt);
  EXPECT_EQ(runs[0].load(), 1);
  EXPECT_EQ(runs[1].load(), 0);
  EXPECT_EQ(runs[2].load(), 0);
  EXPECT_FALSE(rep.completed);
  EXPECT_TRUE(rep.cancelled);
}

TEST(FuzzedExecutor, ThrowingTaskCancelsAndRethrows) {
  std::vector<std::vector<int>> succ = {{1}, {2}, {}};
  std::vector<int> indegree = {0, 1, 1};
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    FuzzOptions fuzz;
    fuzz.seed = seed;
    fuzz.max_delay_us = 5;
    ExecOptions eopt;
    eopt.fuzz = &fuzz;
    CancelToken token;
    eopt.cancel = &token;
    std::vector<std::atomic<int>> runs(3);
    for (auto& r : runs) r.store(0);
    bool threw = false;
    try {
      execute_dag(succ, indegree, 4, [&](int id) {
        runs[id].fetch_add(1);
        if (id == 1) throw std::runtime_error("boom");
      }, eopt);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "seed " << seed;
    EXPECT_TRUE(token.cancelled()) << "seed " << seed;
    EXPECT_EQ(runs[2].load(), 0) << "seed " << seed;
  }
}

TEST(DagExecutor, WorkStealingCancellationTwentySeedGate) {
  // TSan gate for cancellation under work stealing: twenty rounds of a
  // steal-heavy graph (wide fan + serial chain) with the throwing task
  // moved around the fan, so cancellation races dependence release, steals
  // and the park/wake protocol from many interleavings.  Run under
  // -DPLU_SANITIZE=thread via `ctest -L sanitize` (this binary carries the
  // label); the assertions here are the functional half of the gate.
  const int kWide = 128, kChain = 32;
  const int n = 1 + kWide + kChain;
  std::vector<std::vector<int>> succ(n);
  std::vector<int> indegree(n, 1);
  indegree[0] = 0;
  for (int w = 0; w < kWide; ++w) succ[0].push_back(1 + w);
  succ[0].push_back(1 + kWide);  // chain head
  for (int c = 0; c + 1 < kChain; ++c) succ[1 + kWide + c] = {1 + kWide + c + 1};
  for (int seed = 1; seed <= 20; ++seed) {
    const int thrower = 1 + (seed * 37) % kWide;  // a fan task
    ExecOptions eopt;
    CancelToken token;
    eopt.cancel = &token;
    std::vector<std::atomic<int>> runs(n);
    for (auto& r : runs) r.store(0);
    bool threw = false;
    try {
      execute_dag(succ, indegree, 4, [&](int id) {
        runs[id].fetch_add(1);
        if (id == thrower) throw std::runtime_error("boom");
      }, eopt);
    } catch (const std::runtime_error&) {
      threw = true;
    }
    EXPECT_TRUE(threw) << "seed " << seed;
    EXPECT_TRUE(token.cancelled()) << "seed " << seed;
    for (int id = 0; id < n; ++id) {
      EXPECT_LE(runs[id].load(), 1) << "seed " << seed << " task " << id;
    }
    // The chain may have been partially run before the throw was observed,
    // but a prefix property must hold: a chain task can only have run if
    // its predecessor did.
    for (int c = 1; c < kChain; ++c) {
      EXPECT_LE(runs[1 + kWide + c].load(), runs[1 + kWide + c - 1].load())
          << "seed " << seed << " chain position " << c;
    }
  }
}

TEST(DagExecutor, ExternalCancelRacingFinalReleaseFortySeedFuzz) {
  // Drain-vs-release window: an EXTERNAL canceller fires while the last few
  // tasks are releasing their dependences, so the token trip races the
  // final fetch_sub/park-wake sequence.  The trigger point is seed-derived
  // (anywhere from "before the root" to "after the last task"), which
  // sweeps the trip across the whole run.  Contract under every trip
  // point: every task runs at most once, a task only ran if its
  // predecessor did, completed == (tasks_run == n), and the run terminates
  // (a lost wakeup here would hang the wait).
  const int kWide = 48, kChain = 16;
  const int n = 1 + kWide + kChain;
  std::vector<std::vector<int>> succ(n);
  std::vector<int> indegree(n, 1);
  indegree[0] = 0;
  for (int w = 0; w < kWide; ++w) succ[0].push_back(1 + w);
  succ[0].push_back(1 + kWide);  // chain head
  for (int c = 0; c + 1 < kChain; ++c) succ[1 + kWide + c] = {1 + kWide + c + 1};
  for (int seed = 1; seed <= 40; ++seed) {
    const long trigger = (seed * 7919L) % (n + 2);  // 0 .. n+1
    ExecOptions eopt;
    CancelToken token;
    eopt.cancel = &token;
    std::vector<std::atomic<int>> runs(n);
    for (auto& r : runs) r.store(0);
    std::atomic<long> done_count{0};
    std::atomic<bool> stop_canceller{false};
    std::thread canceller([&] {
      while (!stop_canceller.load(std::memory_order_acquire)) {
        if (done_count.load(std::memory_order_acquire) >= trigger) {
          token.cancel();
          return;
        }
        std::this_thread::yield();
      }
    });
    ExecutionReport rep = execute_dag(succ, indegree, 4, [&](int id) {
      runs[id].fetch_add(1);
      done_count.fetch_add(1, std::memory_order_release);
    }, eopt);
    stop_canceller.store(true, std::memory_order_release);
    canceller.join();
    EXPECT_EQ(rep.completed, rep.tasks_run == n) << "seed " << seed;
    long total = 0;
    for (int id = 0; id < n; ++id) {
      EXPECT_LE(runs[id].load(), 1) << "seed " << seed << " task " << id;
      total += runs[id].load();
    }
    EXPECT_EQ(total, rep.tasks_run) << "seed " << seed;
    for (int w = 0; w < kWide; ++w) {
      EXPECT_LE(runs[1 + w].load(), runs[0].load())
          << "seed " << seed << " fan " << w;
    }
    for (int c = 1; c < kChain; ++c) {
      EXPECT_LE(runs[1 + kWide + c].load(), runs[1 + kWide + c - 1].load())
          << "seed " << seed << " chain " << c;
    }
  }
}

TEST(SharedRuntime, EightGraphsSubmittedFromEightThreadsInterleave) {
  // The multi-DAG pool: eight submitter threads each run their own task
  // graph through execute_task_graph with ExecOptions::shared set, so all
  // eight DAGs interleave on the same four workers.  Per graph: every task
  // exactly once, dependence order respected.
  SharedRuntime pool(4);
  const std::vector<CscMatrix> mats = test::small_matrices();
  const int kGraphs = 8;
  std::vector<taskgraph::TaskGraph> graphs(kGraphs);
  for (int i = 0; i < kGraphs; ++i) {
    graphs[i] = small_graph(mats[i % mats.size()],
                            i % 2 == 0 ? taskgraph::GraphKind::kEforest
                                       : taskgraph::GraphKind::kSStar);
  }
  std::vector<std::thread> submitters;
  std::vector<ExecutionReport> reps(kGraphs);
  std::vector<std::vector<std::atomic<int>>> runs(kGraphs);
  std::vector<std::vector<long>> start(kGraphs), finish(kGraphs);
  std::atomic<long> clock{0};
  for (int i = 0; i < kGraphs; ++i) {
    runs[i] = std::vector<std::atomic<int>>(graphs[i].size());
    for (auto& r : runs[i]) r.store(0);
    start[i].assign(graphs[i].size(), 0);
    finish[i].assign(graphs[i].size(), 0);
  }
  for (int i = 0; i < kGraphs; ++i) {
    submitters.emplace_back([&, i] {
      ExecOptions eopt;
      eopt.shared = &pool;
      eopt.request_priority = double(i % 3);
      reps[i] = execute_task_graph(graphs[i], /*num_threads=*/0, [&, i](int id) {
        start[i][id] = clock.fetch_add(1);
        runs[i][id].fetch_add(1);
        finish[i][id] = clock.fetch_add(1);
      }, eopt);
    });
  }
  for (auto& t : submitters) t.join();
  for (int i = 0; i < kGraphs; ++i) {
    EXPECT_TRUE(reps[i].completed) << "graph " << i;
    EXPECT_EQ(reps[i].tasks_run, graphs[i].size()) << "graph " << i;
    for (int id = 0; id < graphs[i].size(); ++id) {
      EXPECT_EQ(runs[i][id].load(), 1) << "graph " << i << " task " << id;
    }
    for (int u = 0; u < graphs[i].size(); ++u) {
      for (int v : graphs[i].succ[u]) {
        EXPECT_LT(finish[i][u], start[i][v])
            << "graph " << i << " edge " << u << "->" << v;
      }
    }
  }
  EXPECT_EQ(pool.graphs_completed(), kGraphs);
}

TEST(SharedRuntime, ThrowingGraphRethrowsOnItsSubmitterOnly) {
  // One graph's task throws; the exception must surface on THAT submitter,
  // while an innocent graph running concurrently on the same pool completes
  // untouched -- per-graph error isolation is the whole point of per-run
  // cancel tokens.
  SharedRuntime pool(3);
  taskgraph::TaskGraph good =
      small_graph(test::small_matrices()[0], taskgraph::GraphKind::kEforest);
  std::vector<std::vector<int>> bad_succ = {{1}, {2}, {}};
  std::vector<int> bad_indeg = {0, 1, 1};
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> good_runs{0};
    bool threw = false;
    std::thread bad_submitter([&] {
      ExecOptions eopt;
      eopt.shared = &pool;
      try {
        execute_dag(bad_succ, bad_indeg, 0, [&](int id) {
          if (id == 1) throw std::runtime_error("boom");
        }, eopt);
      } catch (const std::runtime_error&) {
        threw = true;
      }
    });
    ExecOptions eopt;
    eopt.shared = &pool;
    ExecutionReport rep = execute_task_graph(
        good, 0, [&](int) { good_runs.fetch_add(1); }, eopt);
    bad_submitter.join();
    EXPECT_TRUE(threw) << "round " << round;
    EXPECT_TRUE(rep.completed) << "round " << round;
    EXPECT_EQ(good_runs.load(), good.size()) << "round " << round;
  }
}

TEST(SharedRuntime, PreCancelledTokenDrainsAndPoolStaysUsable) {
  SharedRuntime pool(2);
  std::vector<std::vector<int>> succ = {{1}, {2}, {}};
  std::vector<int> indeg = {0, 1, 1};
  CancelToken token;
  token.cancel();
  ExecOptions eopt;
  eopt.shared = &pool;
  eopt.cancel = &token;
  std::atomic<int> ran{0};
  ExecutionReport rep =
      execute_dag(succ, indeg, 0, [&](int) { ran.fetch_add(1); }, eopt);
  EXPECT_FALSE(rep.completed);
  EXPECT_TRUE(rep.cancelled);
  EXPECT_EQ(ran.load(), 0);
  // The pool must not be poisoned: a fresh graph completes normally.
  ExecOptions clean;
  clean.shared = &pool;
  ExecutionReport rep2 =
      execute_dag(succ, indeg, 0, [&](int) { ran.fetch_add(1); }, clean);
  EXPECT_TRUE(rep2.completed);
  EXPECT_EQ(ran.load(), 3);
}

TEST(SharedRuntime, FuzzedAndPlainGraphsShareOnePool) {
  // Fuzzing is a per-graph policy: a fuzzed graph (random ready picks,
  // pre-task delays) and a plain priority-ordered graph submitted
  // concurrently to ONE pool must both complete, run every task exactly
  // once and respect every edge.
  SharedRuntime pool(4);
  const std::vector<CscMatrix> mats = test::small_matrices();
  const taskgraph::TaskGraph fuzzed_g =
      small_graph(mats[0], taskgraph::GraphKind::kEforest);
  const taskgraph::TaskGraph plain_g =
      small_graph(mats[1], taskgraph::GraphKind::kSStar);
  const auto run_checked = [&](const taskgraph::TaskGraph& g,
                               const ExecOptions& eopt, const char* label) {
    std::vector<std::atomic<int>> runs(g.size());
    for (auto& r : runs) r.store(0);
    std::atomic<long> clock{0};
    std::vector<long> start(g.size()), finish(g.size());
    ExecutionReport rep = execute_task_graph(g, /*num_threads=*/0, [&](int id) {
      start[id] = clock.fetch_add(1);
      runs[id].fetch_add(1);
      finish[id] = clock.fetch_add(1);
    }, eopt);
    EXPECT_TRUE(rep.completed) << label;
    EXPECT_EQ(rep.tasks_run, g.size()) << label;
    for (int id = 0; id < g.size(); ++id) {
      EXPECT_EQ(runs[id].load(), 1) << label << " task " << id;
    }
    for (int u = 0; u < g.size(); ++u) {
      for (int v : g.succ[u]) {
        EXPECT_LT(finish[u], start[v]) << label << " edge " << u << "->" << v;
      }
    }
  };
  const int kRounds = 5;
  for (int round = 1; round <= kRounds; ++round) {
    FuzzOptions fuzz;
    fuzz.seed = static_cast<std::uint64_t>(round);
    fuzz.max_delay_us = 5;
    ExecOptions fuzzed;
    fuzzed.shared = &pool;
    fuzzed.fuzz = &fuzz;
    ExecOptions plain;
    plain.shared = &pool;
    std::thread fuzzed_submitter(
        [&] { run_checked(fuzzed_g, fuzzed, "fuzzed"); });
    run_checked(plain_g, plain, "plain");
    fuzzed_submitter.join();
  }
  EXPECT_EQ(pool.graphs_completed(), 2 * kRounds);
}

#if defined(__linux__)
/// The calling thread's affinity set, ascending.
std::vector<int> thread_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (pthread_getaffinity_np(pthread_self(), sizeof(set), &set) != 0) {
    return cpus;
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

TEST(SharedRuntime, WorkersPinnedToDistinctAllowedCpusWhenThePoolFits) {
  // A pool no larger than the constructing thread's CPU set pins each
  // worker to its own CPU of that set; a larger pool keeps the whole set.
  const std::vector<int> allowed = thread_cpus();
  ASSERT_FALSE(allowed.empty());
  const auto worker_masks = [](SharedRuntime& pool) {
    std::mutex mu;
    std::map<std::thread::id, std::vector<int>> masks;
    const std::vector<std::vector<int>> succ(64);  // independent tasks
    const std::vector<int> indeg(64, 0);
    ExecOptions eopt;
    eopt.shared = &pool;
    execute_dag(succ, indeg, 0, [&](int) {
      std::vector<int> mask = thread_cpus();
      std::lock_guard<std::mutex> lock(mu);
      masks[std::this_thread::get_id()] = std::move(mask);
    }, eopt);
    return masks;
  };
  SharedRuntime fits(std::min(static_cast<int>(allowed.size()), 4));
  std::set<int> taken;
  for (const auto& [id, mask] : worker_masks(fits)) {
    ASSERT_EQ(mask.size(), 1u);
    EXPECT_TRUE(std::binary_search(allowed.begin(), allowed.end(), mask[0]));
    EXPECT_TRUE(taken.insert(mask[0]).second)
        << "two workers pinned to CPU " << mask[0];
  }
  if (allowed.size() <= 16) {
    SharedRuntime larger(static_cast<int>(allowed.size()) + 1);
    for (const auto& [id, mask] : worker_masks(larger)) {
      EXPECT_EQ(mask, allowed);
    }
  }
}
#endif

TEST(ExecuteSequential, UsesTopologicalOrder) {
  CscMatrix a = test::small_matrices()[1];
  taskgraph::TaskGraph g = small_graph(a, taskgraph::GraphKind::kEforest);
  std::vector<int> seen;
  ExecutionReport rep = execute_sequential(g, [&](int id) { seen.push_back(id); });
  ASSERT_TRUE(rep.completed);
  std::vector<int> pos(g.size());
  for (int i = 0; i < g.size(); ++i) pos[seen[i]] = i;
  for (int u = 0; u < g.size(); ++u) {
    for (int v : g.succ[u]) EXPECT_LT(pos[u], pos[v]);
  }
}

TEST(ExecuteSequential, HonorsExplicitOrder) {
  taskgraph::TaskGraph g;
  g.tasks = taskgraph::TaskList({{}, {}});
  g.succ.assign(2, {});
  g.indegree.assign(2, 0);
  std::vector<int> seen;
  execute_sequential(g, [&](int id) { seen.push_back(id); }, {1, 0});
  EXPECT_EQ(seen, (std::vector<int>{1, 0}));
}

}  // namespace
}  // namespace plu::rt
