// Oil-reservoir scenario (the application domain of four of the paper's
// seven matrices): an implicit time-stepping loop on a 3-D reservoir
// stencil.  The sparsity pattern is fixed across steps, so the symbolic
// analysis -- the expensive static part -- is done ONCE and every step only
// refactorizes the new values and solves.  Iterative refinement guards the
// accuracy of each step.  Every factorize() after the first reuses the
// factorization object and its block storage in place.
//
//   $ ./example_oil_reservoir
//
// Exits non-zero when the final step's relative residual exceeds 1e-10
// (ctest runs it as a smoke test, natively and under the sanitizers).
#include <chrono>
#include <cstdio>
#include <random>
#include <vector>

#include "core/sparse_lu.h"
#include "matrix/generators.h"

using clock_type = std::chrono::steady_clock;

int main() {
  // A small reservoir: 18 x 18 x 6 cells.
  plu::gen::StencilOptions stencil;
  stencil.convection = 0.3;
  stencil.seed = 7;
  plu::CscMatrix a = plu::gen::grid3d(18, 18, 6, stencil);
  const int n = a.rows();
  std::printf("reservoir system: %s\n", plu::describe(a).c_str());

  plu::SparseLU lu;
  auto t0 = clock_type::now();
  lu.analyze(a);
  auto t1 = clock_type::now();
  std::printf("one-time analysis: %.1f ms (fill %.1fx, %d supernodes)\n",
              std::chrono::duration<double, std::milli>(t1 - t0).count(),
              lu.analysis().fill_ratio(), lu.analysis().blocks.num_blocks());

  // Pressure state and a pseudo-physical update of the coefficients each
  // step (mobility changes as the front moves).
  std::vector<double> pressure(n, 1.0);
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> drift(0.97, 1.03);

  const int steps = 5;
  double factor_ms = 0.0, solve_ms = 0.0;
  double residual = 0.0;
  for (int step = 0; step < steps; ++step) {
    // Perturb the coefficients in place: same pattern, new values.
    for (double& v : a.values()) v *= drift(rng);

    auto f0 = clock_type::now();
    lu.factorize(a);  // reuses the cached analysis
    auto f1 = clock_type::now();
    factor_ms += std::chrono::duration<double, std::milli>(f1 - f0).count();

    // Right-hand side from the previous pressure (implicit Euler flavor).
    std::vector<double> b;
    a.matvec(pressure, b);
    for (int i = 0; i < n; ++i) b[i] += 0.1;

    auto s0 = clock_type::now();
    plu::RefineResult r = lu.solve_refined(b);
    auto s1 = clock_type::now();
    solve_ms += std::chrono::duration<double, std::milli>(s1 - s0).count();

    pressure = r.x;
    residual = plu::relative_residual(a, r.x, b);
    std::printf("step %d: residual %.2e after %d refinement iteration(s)\n",
                step, residual, r.iterations);
  }
  std::printf("totals over %d steps: factorization %.1f ms, solve %.1f ms\n",
              steps, factor_ms, solve_ms);
  if (!(residual <= 1e-10)) {
    std::printf("FAIL: final residual %.2e exceeds 1e-10\n", residual);
    return 1;
  }
  return 0;
}
