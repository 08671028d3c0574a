// ParallelSolver: a forwarding shim over Factorization::solve.
//
// The one parallel triangular solve is Factorization::solve(b, opt) with
// kThreaded options: the panel walk split by eforest tree (solve_trees,
// core/solve.h), bitwise equal to the one-thread walk.  This class exists
// only because the benchmark replay (perfbench/traced.cpp) constructs it and
// times its solve; it caches nothing, so a refactor of the factorization
// never leaves it stale.
#pragma once

#include <vector>

#include "core/numeric.h"

namespace plu {

class ParallelSolver {
 public:
  /// The factorization must outlive the solver.
  explicit ParallelSolver(const Factorization& f) : f_(&f) {}

  /// f.solve(b, opt) with opt.mode = kThreaded and opt.threads = threads:
  /// bitwise f.solve(b), and it throws like it.
  std::vector<double> solve(const std::vector<double>& b, int threads) const;

 private:
  const Factorization* f_;
};

}  // namespace plu
