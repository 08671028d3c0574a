// Figure 6 of the paper: same improvement series as Figure 5
// (1 - PT(new)/PT(old) vs processor count) for the remaining matrices:
// lns3937, lnsp3937 and saylr4.  See bench_fig5_taskgraph.cpp for the
// two-baseline methodology and the real-thread arm.
#include "bench_common.h"

namespace plu::bench {
namespace {

void print_figure() {
  std::printf("\nFigure 6: improvement 1 - PT(new)/PT(old) from the eforest "
              "task graph\n\n");
  print_taskgraph_improvement(figure6_names());
  print_real_thread_arm(figure6_names());
  std::printf(
      "Alongside Figure 5 this covers all seven matrices; the paper reports\n"
      "the eforest graph 4%%-31%% faster than the S* graph overall.\n");
}

}  // namespace
}  // namespace plu::bench

PLU_BENCH_MAIN(plu::bench::print_figure)
