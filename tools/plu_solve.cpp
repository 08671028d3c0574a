// plu_solve: command-line direct solver.
//
// Reads a sparse matrix (Matrix Market .mtx or Harwell-Boeing .rua/.rsa),
// runs the paper's analysis + factorization pipeline, solves against a
// right-hand side (from a file of one value per line, or the vector of
// ones), and reports analysis statistics and the residual.
//
// Usage:
//   plu_solve MATRIX [options]
//   plu_solve --generate KIND:SIZE [options]   (grid2d, grid3d, banded,
//                                               fem, circuit, random,
//                                               multiphysics3d, powerlaw)
//     --rhs FILE            right-hand side (default: all ones)
//     --ordering METHOD     auto | md (alias mindeg) | amd | nd | rcm |
//                           natural                          (default auto:
//                           nd on 3-D-mesh-like patterns, md otherwise;
//                           decision in the report)
//     --ordering-dry-run    with --ordering auto: compare the policy pick
//                           against its runner-up by exact Cholesky fill
//     --no-postorder        disable eforest postordering
//     --taskgraph KIND      eforest | sstar | sstar-po         (default eforest)
//     --layout L            1d | 2d numeric layout             (default 1d;
//                           2d = per-block tasks, block-restricted pivoting)
//     --scale               MC64 max-product permutation + scaling
//     --pivot-threshold T   threshold pivoting with diagonal preference,
//                           0 < T <= 1
//     --threads N           threaded numeric factorization, N >= 1
//     --lazy                LazyS+ zero-block elision
//     --perturb             static pivot perturbation (SuperLU_DIST-style):
//                           tiny pivots are bumped instead of failing; pair
//                           with --refine to recover accuracy
//     --refine              iterative refinement on the solution
//     --simulate P          also print the simulated makespan on P >= 1
//                           processors
//     --stats               print extended analysis statistics
//     --verbose             the ordering decision, per-phase analysis
//                           timing breakdown, plus the numeric
//                           factorization and solve wall times
//
// A malformed or out-of-range number prints the usage and exits with 2.
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/report.h"
#include "core/solve.h"
#include "core/sparse_lu.h"
#include "matrix/generators.h"
#include "matrix/hb_io.h"
#include "matrix/io.h"
#include "runtime/simulator.h"
#include "runtime/trace.h"
#include "symbolic/supernodes.h"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s MATRIX|--generate KIND[:SIZE] [--rhs FILE]\n"
               "       [--ordering auto|md|amd|nd|rcm|natural] [--ordering-dry-run]\n"
               "       [--no-postorder] [--taskgraph eforest|sstar|sstar-po]\n"
               "       [--layout 1d|2d] [--scale] [--pivot-threshold T]\n"
               "       [--threads N] [--lazy]\n"
               "       [--perturb] [--refine] [--simulate P] [--stats]\n"
               "       [--verbose]\n",
               argv0);
  std::exit(2);
}

/// Parses all of `s` as a T: false on an empty string, trailing characters
/// or a value outside T's range.
template <class T>
bool parse_number(const std::string& s, T* out) {
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

plu::CscMatrix load_matrix(const std::string& path) {
  if (ends_with(path, ".mtx")) return plu::read_matrix_market_file(path);
  if (ends_with(path, ".rua") || ends_with(path, ".rsa") ||
      ends_with(path, ".pua") || ends_with(path, ".psa") ||
      ends_with(path, ".rb") || ends_with(path, ".hb")) {
    plu::HarwellBoeingInfo info;
    plu::CscMatrix a = plu::read_harwell_boeing_file(path, &info);
    std::printf("loaded %s: '%s' (%s)\n", path.c_str(), info.title.c_str(),
                info.type.c_str());
    return a;
  }
  // Sniff the banner.
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  std::string first;
  std::getline(f, first);
  f.close();
  if (first.rfind("%%MatrixMarket", 0) == 0) return plu::read_matrix_market_file(path);
  return plu::read_harwell_boeing_file(path);
}

/// Splits --generate KIND[:SIZE] (SIZE defaults to 20).  SIZE must parse in
/// full, be at least 1 and keep the matrix order within an int: SIZE^2 rows
/// for the 2-D kinds, (2 SIZE + 1)^2 for fem, SIZE^3 for grid3d and
/// 4 SIZE^3 for multiphysics3d.
bool parse_generate(const std::string& spec, std::string* kind, int* size) {
  const std::size_t colon = spec.find(':');
  *kind = spec.substr(0, colon);
  if (colon == std::string::npos) {
    *size = 20;
    return true;
  }
  const int cap = *kind == "grid3d"           ? 1290
                  : *kind == "multiphysics3d" ? 812
                  : *kind == "fem"            ? 23169
                                              : 46340;
  return parse_number(spec.substr(colon + 1), size) && *size >= 1 &&
         *size <= cap;
}

plu::CscMatrix generate_matrix(const std::string& kind, int size) {
  if (kind == "grid2d") return plu::gen::grid2d(size, size, {0.4, 0.0, 0.7, 1});
  if (kind == "grid3d") return plu::gen::grid3d(size, size, size, {0.4, 0.0, 0.7, 2});
  if (kind == "banded") {
    return plu::gen::banded(size * size, {-size, -size + 1, -1, 1, size - 1, size},
                            0.7, 0.6, 3);
  }
  if (kind == "fem") return plu::gen::fem_p2(size, size, 1, 4);
  if (kind == "circuit") return plu::gen::circuit(size * size, 3, 2.0, 5);
  if (kind == "random") return plu::gen::random_sparse(size * size, 3.0, 0.5, 0.7, 6);
  if (kind == "multiphysics3d") {
    return plu::gen::multiphysics3d(size, size, size, 4, {0.4, 0.0, 0.7, 7});
  }
  if (kind == "powerlaw") {
    return plu::gen::power_law(size * size, 4.0, 2.0, 0.6, 0.8, 8);
  }
  throw std::runtime_error("unknown generator kind: " + kind);
}

std::vector<double> load_rhs(const std::string& path, int n) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("cannot open rhs " + path);
  std::vector<double> b;
  double v;
  while (f >> v) b.push_back(v);
  if (static_cast<int>(b.size()) != n) {
    throw std::runtime_error("rhs has " + std::to_string(b.size()) +
                             " entries, matrix order is " + std::to_string(n));
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  std::string matrix_path;
  std::string generate_kind;
  int generate_size = 0;
  std::string rhs_path;
  plu::Options opt;
  plu::NumericOptions nopt;
  bool refine = false;
  bool stats = false;
  bool verbose = false;
  int simulate_p = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--generate") {
      if (!parse_generate(next(), &generate_kind, &generate_size)) {
        usage(argv[0]);
      }
    } else if (arg == "--rhs") {
      rhs_path = next();
    } else if (arg == "--ordering") {
      if (!plu::ordering::parse_method(next(), &opt.ordering)) usage(argv[0]);
    } else if (arg == "--ordering-dry-run") {
      opt.ordering_dry_run = true;
    } else if (arg == "--no-postorder") {
      opt.postorder = false;
    } else if (arg == "--taskgraph") {
      std::string k = next();
      if (k == "eforest") opt.task_graph = plu::taskgraph::GraphKind::kEforest;
      else if (k == "sstar") opt.task_graph = plu::taskgraph::GraphKind::kSStar;
      else if (k == "sstar-po")
        opt.task_graph = plu::taskgraph::GraphKind::kSStarProgramOrder;
      else usage(argv[0]);
    } else if (arg == "--layout") {
      std::string l = next();
      if (l == "1d") opt.layout = plu::Layout::k1D;
      else if (l == "2d") opt.layout = plu::Layout::k2D;
      else usage(argv[0]);
    } else if (arg == "--scale") {
      opt.scale_and_permute = true;
    } else if (arg == "--pivot-threshold") {
      double& t = nopt.pivot_threshold;
      if (!parse_number(next(), &t) || !(t > 0.0 && t <= 1.0)) usage(argv[0]);
    } else if (arg == "--threads") {
      if (!parse_number(next(), &nopt.threads) || nopt.threads < 1) {
        usage(argv[0]);
      }
      nopt.mode = plu::ExecutionMode::kThreaded;
    } else if (arg == "--lazy") {
      nopt.lazy_updates = true;
    } else if (arg == "--perturb") {
      nopt.perturb_pivots = true;
    } else if (arg == "--refine") {
      refine = true;
    } else if (arg == "--simulate") {
      if (!parse_number(next(), &simulate_p) || simulate_p < 1) usage(argv[0]);
    } else if (arg == "--stats") {
      stats = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0]);
    } else if (matrix_path.empty()) {
      matrix_path = arg;
    } else {
      usage(argv[0]);
    }
  }
  if (matrix_path.empty() && generate_kind.empty()) usage(argv[0]);

  try {
    plu::CscMatrix a = generate_kind.empty()
                           ? load_matrix(matrix_path)
                           : generate_matrix(generate_kind, generate_size);
    std::printf("matrix: %s\n", plu::describe(a).c_str());
    std::vector<double> b = rhs_path.empty() ? std::vector<double>(a.rows(), 1.0)
                                             : load_rhs(rhs_path, a.rows());

    plu::SparseLU lu(opt);
    lu.numeric_options() = nopt;
    lu.analyze(a);
    const auto factor_t0 = std::chrono::steady_clock::now();
    lu.factorize(a);
    const double factor_s = seconds_since(factor_t0);
    const plu::Analysis& an = lu.analysis();

    std::printf("analysis: fill=%.2fx, %d supernodes, %d tasks, %zu diagonal "
                "blocks%s\n",
                an.fill_ratio(), an.blocks.num_blocks(), an.graph.size(),
                an.diag_block_sizes.size(), an.scaled() ? ", MC64-scaled" : "");
    if (verbose) {
      std::printf("%s\n", plu::to_string(an.ordering_decision).c_str());
      std::printf("%s\n", plu::to_string(an.timings).c_str());
      std::printf("factorize:   %g ms wall\n", factor_s * 1e3);
    }
    const plu::Factorization& f = lu.factorization();
    if (!plu::factor_usable(f.status())) {
      // One line, machine-greppable: what failed and where.  No solution is
      // printed -- the factors are not usable (core/status.h).
      std::fprintf(stderr, "error: factorization failed: %s at column %d\n",
                   plu::to_string(f.status()), f.failed_column());
      if (f.status() == plu::FactorStatus::kSingular) {
        std::fprintf(stderr,
                     "hint: retry with --perturb --refine to factor a nearby "
                     "nonsingular matrix and recover accuracy\n");
      }
      return 3;
    }
    std::printf("numeric: %s driver, %ld row interchanges", f.driver_name(),
                f.pivot_interchanges());
    if (nopt.lazy_updates) {
      std::printf(", %ld lazy-skipped updates", f.lazy_skipped_updates());
    }
    if (f.layout() == plu::Layout::k2D) {
      std::printf(", min pivot ratio %.1e", f.min_pivot_ratio());
    }
    std::printf("\n");
    const plu::symbolic::BlockingStats& bt = f.blocking_stats();
    std::printf("blocking: %ld row run(s), %ld fused, routed %ld packed / "
                "%ld direct, %ld scan(s) elided\n",
                bt.tile_runs, bt.gemms_fused, bt.routed_packed,
                bt.routed_direct, bt.scans_elided);
    std::printf("storage: %.1f MB peak\n", f.blocks().storage_bytes() / 1e6);
    if (f.status() == plu::FactorStatus::kPerturbed) {
      std::printf("perturbed: %zu pivot(s) bumped to %.3e (growth %.3e); "
                  "%s\n",
                  f.perturbed_columns().size(), f.perturbation_magnitude(),
                  f.growth_factor(),
                  refine ? "refining" : "consider --refine");
    }

    std::vector<double> x;
    const auto solve_t0 = std::chrono::steady_clock::now();
    if (refine) {
      plu::RefineResult r = lu.solve_refined(b);
      x = std::move(r.x);
      std::printf("refinement: %d iteration(s), backward error %.3e\n",
                  r.iterations, r.backward_error);
    } else {
      x = lu.solve(b);
    }
    if (verbose) {
      std::printf("solve:       %g ms wall%s\n", seconds_since(solve_t0) * 1e3,
                  refine ? " (with refinement)" : "");
    }
    std::printf("relative residual: %.3e\n", plu::relative_residual(a, x, b));

    if (stats) {
      std::printf("%s\n%s\n", plu::to_string(plu::report(an)).c_str(),
                  plu::to_string(plu::report(f)).c_str());
      plu::ConditionEstimate c = plu::estimate_condition(f, a);
      std::printf("cond_1 estimate: %.3e (||A||=%.3e, ||A^-1||~%.3e)\n", c.cond1,
                  c.norm_a, c.norm_ainv);
      std::printf("pivot growth: %.3e\n", plu::pivot_growth(f, a));
      plu::Determinant det = plu::determinant(f);
      std::printf("log|det| = %.6e, sign %+d\n", det.log_abs, det.sign);
    }

    if (simulate_p > 0) {
      plu::rt::MachineModel m = plu::rt::MachineModel::origin2000(simulate_p);
      plu::rt::SimulationResult r =
          plu::rt::simulate(an.graph, an.costs, m, plu::rt::SchedulePolicy::kCriticalPath,
                            true);
      std::printf("simulated on %d processors: %.3f s (serial %.3f s)\n%s\n",
                  simulate_p, r.makespan,
                  plu::rt::simulated_serial_seconds(an.costs, m),
                  plu::rt::utilization_summary(r).c_str());
    }
    return f.singular() ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
