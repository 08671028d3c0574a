#include "core/parallel_solve.h"

namespace plu {

std::vector<double> ParallelSolver::solve(const std::vector<double>& b,
                                          int threads) const {
  NumericOptions opt;
  opt.mode = ExecutionMode::kThreaded;
  opt.threads = threads;
  return f_->solve(b, opt);
}

}  // namespace plu
