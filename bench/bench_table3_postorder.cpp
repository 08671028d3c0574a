// Table 3 of the paper: effectiveness of postordering -- number of
// supernodes obtained after L/U supernode partitioning + amalgamation,
// without (SN) and with (SNPO) the eforest postorder, their ratio, and
// NoBlks, the number of diagonal blocks of the block-upper-triangular form
// (trees of the eforest).
//
// Paper finding: an average ~20% decrease in supernode count, with an
// exception (sherman5-class matrices, whose lack of structure defeats
// supernode identification either way), and a large NoBlks with small
// leading blocks for the stencil matrices.
#include "bench_common.h"

#include "symbolic/supernodes.h"

namespace plu::bench {
namespace {

void BM_SupernodePartition(benchmark::State& state) {
  NamedMatrix nm = make_named_matrix("saylr4");
  Analysis an = analyze(nm.a, paper_options());
  for (auto _ : state) {
    auto part = symbolic::find_supernodes(an.symbolic.abar);
    benchmark::DoNotOptimize(part.count());
  }
}
BENCHMARK(BM_SupernodePartition)->Unit(benchmark::kMillisecond);

void print_table() {
  const Options with_post = paper_options();
  Options without_post = paper_options();
  without_post.postorder = false;
  std::printf("\nTable 3: supernode counts without/with postordering\n");
  print_rule(78);
  std::printf("%-10s %8s %8s %9s %8s %10s %10s\n", "Matrix", "SN", "SNPO",
              "SN/SNPO", "NoBlks", "avg w/o", "avg w");
  print_rule(78);
  double ratio_sum = 0.0;
  int count = 0;
  for (const NamedMatrix& nm : make_benchmark_suite()) {
    Analysis plain = analyze(nm.a, without_post);
    Analysis post = analyze(nm.a, with_post);
    int sn = plain.partition.count();
    int snpo = post.partition.count();
    double ratio = snpo > 0 ? static_cast<double>(sn) / snpo : 0.0;
    ratio_sum += ratio;
    ++count;
    std::printf("%-10s %8d %8d %9.3f %8zu %10.2f %10.2f\n", nm.name.c_str(), sn,
                snpo, ratio, post.diag_block_sizes.size(),
                symbolic::supernode_stats(plain.partition).avg_width,
                symbolic::supernode_stats(post.partition).avg_width);
  }
  print_rule(78);
  std::printf("average SN/SNPO = %.3f  (paper: ~1.2x fewer supernodes with "
              "postordering, i.e. ~20%% decrease)\n",
              ratio_sum / count);
  // The paper also observes many small leading diagonal blocks and one big
  // trailing block; print the shape for one representative matrix.
  Analysis rep = analyze(make_named_matrix("orsreg1").a, with_post);
  std::printf("\norsreg1 diagonal-block profile (NoBlks=%zu): ",
              rep.diag_block_sizes.size());
  std::size_t small = 0;
  int largest = 0;
  for (int s : rep.diag_block_sizes) {
    if (s <= 2) ++small;
    largest = std::max(largest, s);
  }
  std::printf("%zu blocks of size <= 2, largest block = %d of %d columns\n",
              small, largest, rep.n);
}

}  // namespace
}  // namespace plu::bench

PLU_BENCH_MAIN(plu::bench::print_table)
