// Ablation A3: the two static-symbolic engines (bitset words vs sorted
// row-merge).  Same output by construction (cross-validated in tests); this
// bench times them across the suite.
#include "bench_common.h"

#include "graph/transversal.h"
#include "symbolic/static_symbolic.h"

namespace plu::bench {
namespace {

Pattern zero_free(const CscMatrix& a) {
  Pattern p = a.pattern();
  auto rp = graph::zero_free_diagonal_permutation(p);
  return p.permuted(*rp, Permutation(p.cols));
}

void BM_Engine(benchmark::State& state, const std::string& name,
               symbolic::Engine engine) {
  NamedMatrix nm = make_named_matrix(name);
  Pattern p = zero_free(nm.a);
  for (auto _ : state) {
    auto r = symbolic::static_symbolic_factorization(p, engine);
    benchmark::DoNotOptimize(r.abar.nnz());
  }
}

void register_benchmarks() {
  for (const char* name : {"orsreg1", "lns3937", "goodwin", "saylr4"}) {
    for (auto engine : {symbolic::Engine::kBitset, symbolic::Engine::kRowMerge}) {
      std::string bname = "BM_Symbolic/" + symbolic::to_string(engine) + "/" + name;
      benchmark::RegisterBenchmark(
          bname.c_str(),
          [name, engine](benchmark::State& s) { BM_Engine(s, name, engine); })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

[[maybe_unused]] const bool registered = (register_benchmarks(), true);

void print_table() {
  std::printf("\nAblation A3: both engines compute identical patterns; see the\n"
              "BM_Symbolic timings above for the speed comparison (the bitset\n"
              "engine wins by a wide margin once fill is heavy, which is why\n"
              "it is the production default).\n");
}

}  // namespace
}  // namespace plu::bench

PLU_BENCH_MAIN(plu::bench::print_table)
