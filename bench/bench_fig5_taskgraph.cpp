// Figure 5 of the paper: performance improvement from the new (eforest)
// task dependence graph over the S* graph, 1 - PT(new)/PT(old), as a
// function of the processor count, for sherman3, sherman5, orsreg1 and
// goodwin.
//
// Both graphs are scheduled by the same critical-path list scheduler on the
// same simulated machine, so the delta isolates the dependence-structure
// effect -- the paper's methodology (their baseline swaps only the task
// graph construction inside the same code).  The paper reports 4%-31%
// improvements.  The scan of the S* definition is ambiguous, so two
// baselines are printed (taskgraph/build.h): the program-order reading
// reproduces the paper's band; the minimal per-target-chain reading is
// absorbed almost completely by a work-conserving scheduler on these
// matrices (a finding documented in EXPERIMENTS.md).
//
// A second table runs the same three graphs on real threads (1, 2 and 4
// workers of this host) with the simulator's P=4 prediction beside each,
// and checks the headline: eforest no slower than the program-order S*
// graph at 4 threads on every matrix.
#include "bench_common.h"

namespace plu::bench {
namespace {

void print_figure() {
  std::printf("\nFigure 5: improvement 1 - PT(new)/PT(old) from the eforest "
              "task graph\n\n");
  print_taskgraph_improvement(figure5_names());
  print_real_thread_arm(figure5_names());
  std::printf(
      "Paper: improvements grow with the processor count (serialized update\n"
      "chains bind only when there is parallelism to waste) and reach the\n"
      "~4%%-31%% band for these matrices.\n");
}

}  // namespace
}  // namespace plu::bench

PLU_BENCH_MAIN(plu::bench::print_figure)
