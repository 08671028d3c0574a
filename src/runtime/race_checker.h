// Footprint-based dynamic race detection for the task-graph runtime — the
// runtime cross-check of Theorem 4.
//
// The paper's lock-free claim is structural: updates whose sources lie in
// independent eforest subtrees are left unordered by the dependence graph
// because they write disjoint rows (Theorem 4; row by row, the writers of
// each scalar row form an eforest chain, which the analysis checks --
// symbolic::row_writer_chain_violations).  The checker validates that
// claim dynamically: while the factorization runs, each task records the
// resources it reads and writes (one row of one block column in 1-D, one
// block in 2-D); afterwards check() flags every pair of tasks that is
// UNORDERED in the transitive dependence relation of the graph yet has
// conflicting footprints (write/write, or read/write across tasks).  No
// numeric driver takes a lock, so a correct graph yields zero races under
// every legal interleaving; removing a single rule-4 edge, or widening one
// row run by a row, makes the checker fire.
//
// Recording is wait-free with respect to other tasks: each task id is
// recorded only by the one thread running it, into its own slot, so the
// checker adds no synchronization that could mask executor bugs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "taskgraph/build.h"

namespace plu::rt {

enum class AccessKind { kRead, kWrite };

/// One conflicting, unordered task pair, with the first resource it
/// conflicts on (encoded by the numeric layer: row * num_blocks +
/// block_column in 1-D, row_block * num_blocks + block_column in 2-D).
struct FootprintRace {
  int task_a = 0;
  int task_b = 0;
  long resource = 0;
  AccessKind kind_a = AccessKind::kWrite;
  AccessKind kind_b = AccessKind::kWrite;
};

std::string to_string(const FootprintRace& r);

class RaceChecker {
 public:
  RaceChecker() = default;
  explicit RaceChecker(int num_tasks) { reset(num_tasks); }

  void reset(int num_tasks);
  int num_tasks() const { return static_cast<int>(acc_.size()); }

  /// Task `task` read `resource`.  Safe to call from the thread running the
  /// task while other tasks record concurrently.
  void read(int task, long resource);

  /// Task `task` wrote `resource` with no synchronization beyond the graph.
  void write(int task, long resource);

  /// All conflicting task pairs left unordered by the transitive dependence
  /// relation of `succ` (one race per pair, first conflicting resource),
  /// capped at `max_races`.  `succ` must be acyclic and have one entry per
  /// task.
  std::vector<FootprintRace> check(const std::vector<std::vector<int>>& succ,
                                   std::size_t max_races = 100) const;
  std::vector<FootprintRace> check(const taskgraph::TaskGraph& g,
                                   std::size_t max_races = 100) const;

 private:
  struct Access {
    long resource = 0;
    AccessKind kind = AccessKind::kRead;
  };

  std::vector<std::vector<Access>> acc_;  // per-task footprint
};

}  // namespace plu::rt
