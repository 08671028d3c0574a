// Kernel routing and the threaded bitwise contract.
//
// The paper's point about supernodes is that they enable BLAS-3 in the
// numeric factorization.  Every update runs the structural row runs of its
// source panel (symbolic::ColumnPlan::row_runs), and each run is routed to
// the packed or the direct gemm engine by the same predicates gemm's auto
// router uses (blas/level3.h).  This bench times the numeric factorization
// sequentially (ExecutionMode::kSequential, the right-looking baseline)
// against the 4-thread task graph (kThreaded) on every suite matrix, and
// VERIFIES the contract inline: the factors of both runs are compared
// column buffer by column buffer with memcmp -- any mismatch is a
// correctness bug, printed loudly, recorded in the JSON artifact, and
// turned into a nonzero exit.
//
// It also prints the routing counters per matrix -- row runs dispatched to
// the packed and to the direct engine -- the data behind the question
// whether the packed engine pays on the shapes the drivers route to it.
//
// Flags: --smoke (small sizes + 1 rep, the CI gate), --json FILE.
#include <cstdio>
#include <cstring>
#include <string>
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
  if (smoke) {
    for (const char* name : {"orsreg1", "lns3937"}) {
      NamedMatrix nm = make_named_matrix(name);
      cases.push_back({nm.name, std::move(nm.a)});
    }
  } else {
    for (NamedMatrix& nm : make_benchmark_suite()) {
      cases.push_back({nm.name, std::move(nm.a)});
    }
  }
  // The multiphysics stencil interleaves dense cliques with sparse
  // coupling blocks; the power-law graph is all tiny supernodes.
  {
    gen::StencilOptions g;
    g.seed = 101;
    cases.push_back({smoke ? "multiphys-864" : "multiphys-3k",
                     smoke ? gen::multiphysics3d(6, 6, 6, 2, g)
                           : gen::multiphysics3d(10, 10, 8, 4, g)});
  }
  {
    const int n = smoke ? 1200 : 4000;
    cases.push_back({smoke ? "powerlaw-1k" : "powerlaw-4k",
                     gen::power_law(n, 4.0, 2.0, 0.6, 0.8, 102)});
  }
  return cases;
}

/// Bitwise factor comparison: status plus a memcmp of every block-column
/// buffer.  The column buffers are contiguous (rows == ld), so one memcmp
/// per column covers every stored double, explicit zeros included.
bool same_factors(const Factorization& x, const Factorization& y) {
  if (x.status() != y.status()) return false;
  if (x.pivot_interchanges() != y.pivot_interchanges()) return false;
  const BlockMatrix& bx = x.blocks();
  const BlockMatrix& by = y.blocks();
  if (bx.num_block_columns() != by.num_block_columns()) return false;
  for (int j = 0; j < bx.num_block_columns(); ++j) {
    const blas::ConstMatrixView cx = bx.column(j);
    const blas::ConstMatrixView cy = by.column(j);
    if (cx.rows != cy.rows || cx.cols != cy.cols) return false;
    const std::size_t bytes =
        sizeof(double) * static_cast<std::size_t>(cx.rows) * cx.cols;
    if (std::memcmp(cx.data, cy.data, bytes) != 0) return false;
  }
  return true;
}

void run(bool smoke) {
  const int reps = smoke ? 1 : 2;
  constexpr int kThreads = 4;

  std::printf("%-14s %8s %10s %10s %8s %9s %9s %6s\n", "matrix", "n",
              "seq (s)", "4t (s)", "speedup", "packed", "direct", "bitEQ");
  print_rule(80);
  int mismatches = 0;
  for (Case& c : make_cases(smoke)) {
    const Analysis an = analyze(c.a);
    NumericOptions seq;
    seq.mode = ExecutionMode::kSequential;
    NumericOptions thr;
    thr.mode = ExecutionMode::kThreaded;
    thr.threads = kThreads;
    const double secs_seq =
        min_of_n_seconds(reps, [&] { Factorization f(an, c.a, seq); });
    const double secs_thr =
        min_of_n_seconds(reps, [&] { Factorization f(an, c.a, thr); });
    // One final run of each, kept alive for the bitwise comparison and the
    // routing counters.
    Factorization fs(an, c.a, seq);
    Factorization ft(an, c.a, thr);
    const bool bit_equal = same_factors(fs, ft);
    if (!bit_equal) {
      ++mismatches;
      std::printf("ERROR: %s: %d-thread factors differ from sequential\n",
                  c.name.c_str(), kThreads);
    }
    // The routing depends on the values only, so both runs count the same.
    const symbolic::BlockingStats& bt = ft.blocking_stats();
    std::printf("%-14s %8d %10.4f %10.4f %8.2f %9ld %9ld %6s\n",
                c.name.c_str(), c.a.rows(), secs_seq, secs_thr,
                secs_seq / secs_thr, bt.routed_packed, bt.routed_direct,
                bit_equal ? "yes" : "NO");
    JsonRecord rec;
    rec.field("bench", "ablation_kernels")
        .field("matrix", c.name)
        .field("n", c.a.rows())
        .field("nnz", c.a.nnz())
        .field("threads", kThreads)
        .field("seq_seconds", secs_seq)
        .field("threaded_seconds", secs_thr)
        .field("tile_runs", bt.tile_runs)
        .field("gemms_fused", bt.gemms_fused)
        .field("routed_packed", bt.routed_packed)
        .field("routed_direct", bt.routed_direct)
        .field("scans_elided", bt.scans_elided)
        .field("bitwise_equal", bit_equal ? 1 : 0)
        .field("reps", reps);
    json_append(rec);
  }
  print_rule(80);
  if (mismatches > 0) {
    std::printf("FAILED: %d matrix(es) with threaded factors different from "
                "sequential\n",
                mismatches);
    std::exit(1);
  }
  std::printf(
      "packed/direct: row runs routed to each gemm engine; threaded factors\n"
      "are verified bitwise identical to the sequential ones above.\n");
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
