// Quickstart: build a sparse matrix, factor it with the paper's pipeline,
// solve, and inspect what the analysis produced.
//
//   $ ./example_quickstart
#include <cstdio>
#include <vector>

#include "core/sparse_lu.h"
#include "matrix/generators.h"

int main() {
  // A 30x30 convection-diffusion operator on a 2-D grid (900 unknowns).
  plu::gen::StencilOptions stencil;
  stencil.convection = 0.5;
  stencil.seed = 42;
  plu::CscMatrix a = plu::gen::grid2d(30, 30, stencil);
  std::printf("matrix: %s\n", plu::describe(a).c_str());

  // Default options = the paper's method (static symbolic factorization,
  // eforest postordering, supernode amalgamation, the eforest task
  // dependence graph) with the auto ordering, which picks minimum degree on
  // A^T A for this 2-D grid and nested dissection for 3-D meshes.
  plu::SparseLU lu;
  lu.factorize(a);

  const plu::Analysis& an = lu.analysis();
  std::printf("analysis: fill |Abar|/|A| = %.2f, %d supernodes, %d tasks, "
              "%zu diagonal blocks\n",
              an.fill_ratio(), an.blocks.num_blocks(), an.graph.size(),
              an.diag_block_sizes.size());

  // Solve A x = b for a manufactured right-hand side.
  std::vector<double> x_true(a.rows());
  for (int i = 0; i < a.rows(); ++i) x_true[i] = 1.0 + 0.001 * i;
  std::vector<double> b;
  a.matvec(x_true, b);

  std::vector<double> x = lu.solve(b);
  std::printf("relative residual: %.2e\n", plu::relative_residual(a, x, b));

  double max_err = 0.0;
  for (int i = 0; i < a.rows(); ++i) {
    max_err = std::max(max_err, std::abs(x[i] - x_true[i]));
  }
  std::printf("max forward error vs manufactured solution: %.2e\n", max_err);
  return 0;
}
