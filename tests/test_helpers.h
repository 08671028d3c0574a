// Shared helpers for the test suite.
#pragma once

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "matrix/coo.h"
#include "matrix/csc.h"
#include "matrix/generators.h"

namespace plu::test {

/// Deterministic random vector in [-1, 1].
inline std::vector<double> random_vector(int n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> v(n);
  for (double& x : v) x = dist(rng);
  return v;
}

/// Small deterministic test matrices covering the structural classes.
inline std::vector<CscMatrix> small_matrices() {
  std::vector<CscMatrix> out;
  gen::StencilOptions g;
  g.seed = 42;
  g.convection = 0.5;
  out.push_back(gen::grid2d(7, 6, g));
  g.seed = 43;
  out.push_back(gen::grid3d(4, 3, 3, g));
  out.push_back(gen::banded(60, {-8, -7, -1, 1, 7, 8}, 0.7, 0.6, 44));
  out.push_back(gen::fem_p2(3, 2, 1, 45));
  out.push_back(gen::random_sparse(50, 3.0, 0.4, 0.7, 46));
  out.push_back(gen::random_sparse(35, 2.0, 0.0, 0.8, 47));  // fully unsymmetric
  return out;
}

/// The paper's 7x7 example matrix of Figure 1(a) is not fully recoverable
/// from the scanned text; this is a small unsymmetric matrix with a
/// nontrivial eforest (multiple trees after symbolic factorization) used
/// wherever the paper's worked example is exercised.
inline CscMatrix example_matrix() {
  CooMatrix coo(7, 7);
  const double d = 4.0;
  for (int i = 0; i < 7; ++i) coo.add(i, i, d + i);
  coo.add(0, 2, 1.0);
  coo.add(1, 0, -2.0);
  coo.add(1, 4, 1.5);
  coo.add(3, 1, 0.5);
  coo.add(3, 4, -1.0);
  coo.add(5, 2, 2.0);
  coo.add(5, 6, -0.5);
  coo.add(6, 5, 1.0);
  coo.add(2, 6, 0.25);
  return coo.to_csc();
}

/// Production-shape gate matrices: the shapes the benches run, where
/// independent subtrees really do execute concurrently at 4 threads (the
/// 50 small sweep matrices rarely run two subtrees at once).  forest12 has
/// >= 12 independent eforest trees; the other three are the
/// bench_scaling_modern --smoke shapes.
inline std::vector<std::pair<std::string, CscMatrix>> production_matrices() {
  std::vector<std::pair<std::string, CscMatrix>> out;
  {
    std::vector<CscMatrix> blocks;
    gen::StencilOptions g;
    g.convection = 0.3;
    for (int i = 0; i < 12; ++i) {
      g.seed = 1000 + i;
      blocks.push_back(gen::grid2d(28 + i, 28, g));
    }
    out.emplace_back("forest12", gen::block_diag(blocks));
  }
  {
    gen::StencilOptions g;
    g.seed = 81;
    out.emplace_back("multiphys-2k", gen::multiphysics3d(8, 8, 8, 4, g));
  }
  out.emplace_back("powerlaw-2k", gen::power_law(2000, 4.0, 2.0, 0.6, 0.8, 84));
  out.emplace_back("banded-6k", gen::banded(6000, {-200, -199, -1, 1, 199, 200},
                                            0.8, 0.7, 83));
  return out;
}

/// The `refactor` workload's shape: 16 uncoupled multiphysics3d(8,8,4,4)
/// domains (n = 16384, 16 eforest trees, storage above
/// kParallelPassDoubles), domain d drawn with seed first_seed + d.
inline CscMatrix forest16(std::uint64_t first_seed) {
  std::vector<CscMatrix> domains;
  for (int d = 0; d < 16; ++d) {
    gen::StencilOptions g;
    g.seed = first_seed + static_cast<std::uint64_t>(d);
    domains.push_back(gen::multiphysics3d(8, 8, 4, 4, g));
  }
  return gen::block_diag(domains);
}

}  // namespace plu::test
