// Tour of the solver features beyond plain factorize/solve: transpose
// solves, condition estimation, LazyS+ zero-block elision, parallel
// triangular solves, and the 2-D factorization with restricted pivoting.
//
//   $ ./example_solver_features
#include <cstdio>
#include <vector>

#include "core/solve.h"
#include "core/sparse_lu.h"
#include "matrix/generators.h"

int main() {
  plu::CscMatrix a = plu::gen::grid3d(8, 8, 5, {0.35, 0.0, 0.7, 21});
  std::printf("system: %s\n\n", plu::describe(a).c_str());
  std::vector<double> b(a.rows());
  for (int i = 0; i < a.rows(); ++i) b[i] = 1.0 + (i % 7) * 0.25;

  plu::SparseLU lu;
  lu.factorize(a);

  // Plain, transpose, and threaded solves (the threaded one splits the
  // walk by eforest tree on storage above kParallelPassDoubles).
  std::vector<double> x = lu.solve(b);
  std::printf("solve           residual %.2e\n", plu::relative_residual(a, x, b));
  std::vector<double> xt = lu.solve_transpose(b);
  {
    std::vector<double> r;
    a.matvec_transpose(xt, r);
    double err = 0;
    for (std::size_t i = 0; i < r.size(); ++i)
      err = std::max(err, std::abs(r[i] - b[i]));
    std::printf("solve_transpose residual %.2e\n", err);
  }
  plu::NumericOptions threaded;
  threaded.mode = plu::ExecutionMode::kThreaded;
  threaded.threads = 4;
  std::vector<double> xp = lu.factorization().solve(b, threaded);
  std::printf("threaded solve  residual %.2e (4 threads)\n",
              plu::relative_residual(a, xp, b));

  // Condition estimate from the factored inverse.
  plu::ConditionEstimate cond = plu::estimate_condition(lu.factorization(), a);
  std::printf("condition:      ||A||_1 = %.3e, est ||A^-1||_1 = %.3e, "
              "cond_1 ~ %.3e\n",
              cond.norm_a, cond.norm_ainv, cond.cond1);

  // LazyS+ elision.
  plu::SparseLU lazy;
  lazy.numeric_options().lazy_updates = true;
  lazy.factorize(a);
  long total_updates =
      lazy.analysis().graph.size() - lazy.analysis().blocks.num_blocks();
  std::printf("LazyS+:         %ld of %ld updates hit a zero block and were "
              "skipped\n",
              lazy.factorization().lazy_skipped_updates(), total_updates);

  // 2-D layout (block-restricted pivoting) through the same facade: flip
  // Options::layout and everything -- factorize, solves, refinement --
  // routes through the 2-d-block driver.
  plu::SparseLU lu2d;
  lu2d.options().layout = plu::Layout::k2D;
  lu2d.numeric_options().mode = plu::ExecutionMode::kThreaded;
  lu2d.numeric_options().threads = 4;
  lu2d.factorize(a);
  const plu::Factorization& f2 = lu2d.factorization();
  std::vector<double> x2 = lu2d.solve(b);
  std::printf("2-D factorize:  residual %.2e, min pivot ratio %.1e, %d tasks "
              "(%s driver)\n",
              plu::relative_residual(a, x2, b), f2.min_pivot_ratio(),
              f2.task_graph().size(), f2.driver_name());
  return 0;
}
