// Production-scale scaling sweep: modern workload classes at sizes where
// per-task scheduling overhead and storage layout actually matter.
//
// Matrices (full mode):
//   forest-102k     100 decoupled 3-D multi-physics domains -> 102,400 rows
//                   over >= 100 independent eforest trees (the headline
//                   >= 1e5-row case, and the scheduling stress shape: tens
//                   of thousands of sub-millisecond leaf tasks);
//   multiphys-8k    ONE coupled 3-D multi-physics domain, 14x14x10 grid x 4
//                   unknowns per point;
//   banded-60k      wide banded unsymmetric operator;
//   powerlaw-4k     power-law column-degree mix (hub columns).
//
// Size ceilings are set by the METHOD, not squeamishness: static symbolic
// factorization fills for every possible pivot sequence, so a single
// coupled 3-D domain's factor storage grows superlinearly (a 16k-row
// coupled block already stores ~0.8 GB), and minimum degree on A'A is the
// dominant analysis cost on hub-heavy power-law matrices (ROADMAP: the
// parallel ordering tier).  The >= 1e5-row scale is carried by the forest,
// which is exactly the shape the paper's eforest parallelism targets.
//
// For each matrix the sweep times the threaded numeric factorization at
// threads {1,2,4,8} with the warmup + min-of-N protocol (bench_common.h),
// analysis done ONCE per matrix and reused by every thread count.  Two
// refactorization
// records (same pattern, perturbed values -- the Newton / time-stepping
// workload: a fresh Factorization on the shared analysis, and the in-place
// path of one reused SparseLU) and machine-model scaling records
// (rt::simulate on the Origin-2000 model, P = 1..8) complete the artifact.
//
// HONESTY NOTE: wall-clock speedups are real measurements on THIS host --
// on a single-core container threads > 1 cannot beat 1 and the wall
// records will say so (the `cores` field records the host's concurrency).
// When cores == 1 the wall_speedup_vs_1t field is emitted as null (bench_json
// maps non-finite doubles to null): a one-core "speedup" is pure timer noise
// (BENCH_pr8 recorded 0.82-1.08x) and must not be graded as scaling data.
// The simulated records carry the machine-model scaling; CI multi-core
// runners grade wall-clock scaling from the artifact this bench appends
// with --json (BENCH_pr9 era: BENCH_pr8.json at the repo root).
//
// Flags: --smoke (downscaled sizes + 1 rep, the CI gate), --json FILE.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "matrix/generators.h"

namespace plu::bench {
namespace {

struct Case {
  std::string name;
  CscMatrix a;
};

std::vector<Case> make_cases(bool smoke) {
  std::vector<Case> cases;
  {
    std::vector<CscMatrix> blocks;
    gen::StencilOptions g;
    const int nblocks = smoke ? 8 : 100;
    for (int i = 0; i < nblocks; ++i) {
      g.seed = 8200 + i;
      blocks.push_back(smoke ? gen::multiphysics3d(5, 5, 5, 2, g)
                             : gen::multiphysics3d(8, 8, 4, 4, g));
    }
    cases.push_back({smoke ? "forest-2k" : "forest-102k",
                     gen::block_diag(blocks)});
  }
  {
    gen::StencilOptions g;
    g.seed = 81;
    cases.push_back({smoke ? "multiphys-2k" : "multiphys-8k",
                     smoke ? gen::multiphysics3d(8, 8, 8, 4, g)
                           : gen::multiphysics3d(14, 14, 10, 4, g)});
  }
  {
    const int n = smoke ? 6000 : 60000;
    cases.push_back({smoke ? "banded-6k" : "banded-60k",
                     gen::banded(n, {-200, -199, -1, 1, 199, 200}, 0.8, 0.7,
                                 83)});
  }
  {
    const int n = smoke ? 2000 : 4000;
    cases.push_back({smoke ? "powerlaw-2k" : "powerlaw-4k",
                     gen::power_law(n, 4.0, 2.0, 0.6, 0.8, 84)});
  }
  return cases;
}

void run(bool smoke) {
  const int reps = smoke ? 1 : 2;
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  Options aopt;  // defaults: mindeg + postorder + eforest graph
  std::printf("host cores: %d%s\n", cores,
              cores < 8 ? " (wall-clock scaling limited; simulated records "
                          "carry the machine-model scaling)"
                        : "");
  std::printf("%-15s %8s %3s  %10s %8s\n", "matrix", "n", "P", "factor(s)",
              "vs 1t");
  for (Case& c : make_cases(smoke)) {
    const Analysis an = analyze(c.a, aopt);
    double base = 0.0;  // 1-thread seconds, for the speedup column
    for (int threads : {1, 2, 4, 8}) {
      NumericOptions nopt;
      nopt.mode = ExecutionMode::kThreaded;
      nopt.threads = threads;
      std::size_t storage_bytes = 0;
      const double secs = min_of_n_seconds(reps, [&] {
        Factorization f(an, c.a, nopt);
        storage_bytes = f.blocks().storage_bytes();
      });
      if (threads == 1) base = secs;
      const double speedup = base / secs;
      // One core cannot scale: record null (NaN -> null in bench_json)
      // instead of timer noise dressed up as a speedup.
      const double speedup_record =
          cores > 1 ? speedup : std::numeric_limits<double>::quiet_NaN();
      std::printf("%-15s %8d %3d  %10.4f %8.2f\n", c.name.c_str(), c.a.rows(),
                  threads, secs, speedup);
      JsonRecord rec;
      rec.field("bench", "scaling_modern")
          .field("matrix", c.name)
          .field("n", c.a.rows())
          .field("nnz", c.a.nnz())
          .field("cores", cores)
          .field("threads", threads)
          .field("reps", reps)
          .field("wall_seconds", secs)
          .field("wall_speedup_vs_1t", speedup_record)
          .field("tasks", an.graph.size())
          .field("storage_mb", storage_bytes / 1e6);
      json_append(rec);
    }
    // Refactorization with perturbed values: the pattern is copied
    // verbatim, so the SAME analysis is reused -- the Newton-loop workload.
    {
      const CscMatrix a2 = gen::perturb_values(c.a, 0.05, 85);
      NumericOptions nopt;
      nopt.mode = ExecutionMode::kThreaded;
      nopt.threads = 8;
      const double secs =
          min_of_n_seconds(reps, [&] { Factorization f(an, a2, nopt); });
      std::printf("%-15s %8d   refactor (perturbed values, 8t) %10.4f\n",
                  c.name.c_str(), c.a.rows(), secs);
      JsonRecord rec;
      rec.field("bench", "scaling_modern_refactor")
          .field("matrix", c.name)
          .field("n", c.a.rows())
          .field("cores", cores)
          .field("threads", 8)
          .field("wall_seconds", secs);
      json_append(rec);

      // The same refactorization through one SparseLU, the way a Newton
      // loop runs it: the untimed warmup call analyzes and allocates, every
      // timed call refactorizes in place (Factorization::refactor: one fill
      // of the same slab, the slot scatter, one factor scan).
      SparseLU lu(aopt);
      lu.numeric_options() = nopt;
      const double inplace_secs =
          min_of_n_seconds(reps, [&] { lu.factorize(a2); });
      std::printf("%-15s %8d   refactor in place (SparseLU, 8t) %10.4f\n",
                  c.name.c_str(), c.a.rows(), inplace_secs);
      JsonRecord inplace;
      inplace.field("bench", "scaling_modern_refactor_inplace")
          .field("matrix", c.name)
          .field("n", c.a.rows())
          .field("cores", cores)
          .field("threads", 8)
          .field("wall_seconds", inplace_secs)
          .field("analyze_count", lu.analyze_count());
      json_append(inplace);
    }
    // Machine-model scaling (Origin-2000 costs, critical-path list
    // scheduling): the platform-independent record of how this matrix's
    // DAG scales to P processors.
    const double sim1 = simulated_seconds(an, 1);
    for (int p : {1, 2, 4, 8}) {
      const double simp = simulated_seconds(an, p);
      std::printf("%-15s %8d %3d simulated %10.4f  speedup %5.2f (%d tasks)\n",
                  c.name.c_str(), c.a.rows(), p, simp, sim1 / simp,
                  an.graph.size());
      JsonRecord rec;
      rec.field("bench", "scaling_modern_sim")
          .field("matrix", c.name)
          .field("n", c.a.rows())
          .field("p", p)
          .field("tasks", an.graph.size())
          .field("sim_seconds", simp)
          .field("sim_speedup", sim1 / simp);
      json_append(rec);
    }
  }
}

}  // namespace
}  // namespace plu::bench

int main(int argc, char** argv) {
  plu::bench::strip_json_flag(&argc, argv);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  plu::bench::run(smoke);
  return 0;
}
