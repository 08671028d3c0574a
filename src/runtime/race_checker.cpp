#include "runtime/race_checker.h"

#include <algorithm>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "taskgraph/analysis.h"

namespace plu::rt {

namespace {

const char* kind_name(AccessKind k) {
  return k == AccessKind::kRead ? "read" : "write";
}

}  // namespace

std::string to_string(const FootprintRace& r) {
  return "tasks " + std::to_string(r.task_a) + " (" + kind_name(r.kind_a) +
         ") and " + std::to_string(r.task_b) + " (" + kind_name(r.kind_b) +
         ") unordered on resource " + std::to_string(r.resource);
}

void RaceChecker::reset(int num_tasks) {
  acc_.assign(static_cast<std::size_t>(std::max(0, num_tasks)), {});
}

void RaceChecker::read(int task, long resource) {
  acc_[task].push_back({resource, AccessKind::kRead});
}

void RaceChecker::write(int task, long resource) {
  acc_[task].push_back({resource, AccessKind::kWrite});
}

std::vector<FootprintRace> RaceChecker::check(
    const std::vector<std::vector<int>>& succ, std::size_t max_races) const {
  if (succ.size() != acc_.size()) {
    throw std::invalid_argument("RaceChecker::check: graph/task-count mismatch");
  }
  std::vector<FootprintRace> races;
  if (acc_.empty()) return races;

  taskgraph::Reachability reach(succ);

  // Accessor lists per resource.  Within one task, keep only the strongest
  // access per resource (write > read) so repeated records do not inflate
  // the pairwise scan.
  struct Accessor {
    int task;
    AccessKind kind;
  };
  std::unordered_map<long, std::vector<Accessor>> by_resource;
  for (int t = 0; t < num_tasks(); ++t) {
    std::unordered_map<long, AccessKind> strongest;
    for (const Access& a : acc_[t]) {
      auto [it, inserted] = strongest.emplace(a.resource, a.kind);
      if (!inserted && a.kind == AccessKind::kWrite) it->second = a.kind;
    }
    for (const auto& [res, kind] : strongest) {
      by_resource[res].push_back({t, kind});
    }
  }

  std::set<std::pair<int, int>> reported;
  for (const auto& [res, accs] : by_resource) {
    if (accs.size() < 2) continue;
    for (std::size_t i = 0; i < accs.size(); ++i) {
      for (std::size_t j = i + 1; j < accs.size(); ++j) {
        const Accessor& a = accs[i];
        const Accessor& b = accs[j];
        // Read/read never conflicts; everything else does.
        if (a.kind == AccessKind::kRead && b.kind == AccessKind::kRead) {
          continue;
        }
        if (reach.ordered(a.task, b.task)) continue;
        auto key = std::minmax(a.task, b.task);
        if (!reported.insert({key.first, key.second}).second) continue;
        races.push_back({a.task, b.task, res, a.kind, b.kind});
        if (races.size() >= max_races) return races;
      }
    }
  }
  return races;
}

std::vector<FootprintRace> RaceChecker::check(const taskgraph::TaskGraph& g,
                                              std::size_t max_races) const {
  return check(g.succ, max_races);
}

}  // namespace plu::rt
