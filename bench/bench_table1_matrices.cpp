// Table 1 of the paper: benchmark matrices and their characteristics --
// name, application domain, order, |A|, and the static-symbolic fill ratio
// |Abar| / |A|.
//
// google-benchmark timings: the static symbolic factorization itself (the
// step whose cost the paper contrasts with dynamic symbolic schemes).
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

void BM_StaticSymbolic(benchmark::State& state, const std::string& name) {
  NamedMatrix nm = make_named_matrix(name);
  Pattern p = zero_free(nm.a);
  for (auto _ : state) {
    auto r = symbolic::static_symbolic_factorization(p);
    benchmark::DoNotOptimize(r.abar.nnz());
  }
}

void register_benchmarks() {
  for (const char* name :
       {"sherman3", "sherman5", "lnsp3937", "lns3937", "orsreg1", "saylr4",
        "goodwin"}) {
    benchmark::RegisterBenchmark(("BM_StaticSymbolic/" + std::string(name)).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_StaticSymbolic(s, name);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
}

[[maybe_unused]] const bool registered = (register_benchmarks(), true);

void print_table() {
  const Options opt = paper_options();
  std::printf("\nTable 1: benchmark matrices (synthetic stand-ins; see DESIGN.md)\n");
  print_rule(86);
  std::printf("%-10s %-22s %7s %8s %8s %9s %11s\n", "Matrix", "Domain", "order",
              "|A|", "paper n", "paper|A|", "|Abar|/|A|");
  print_rule(86);
  for (const NamedMatrix& nm : make_benchmark_suite()) {
    Analysis an = analyze(nm.a, opt);
    std::printf("%-10s %-22s %7d %8d %8d %9d %11.2f\n", nm.name.c_str(),
                nm.domain.c_str(), nm.a.rows(), nm.a.nnz(), nm.paper_order,
                nm.paper_nnz, an.fill_ratio());
  }
  print_rule(86);
  std::printf(
      "Shape check: oil-reservoir stencils and fluid-flow bands show the\n"
      "order-of-magnitude static fill the S*/S+ line of work reports; the\n"
      "FEM matrix (goodwin class) is denser up front and fills relatively less.\n");
}

}  // namespace
}  // namespace plu::bench

PLU_BENCH_MAIN(plu::bench::print_table)
