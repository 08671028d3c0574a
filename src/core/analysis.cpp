#include "core/analysis.h"

#include <chrono>
#include <stdexcept>
#include <thread>

#include "graph/eforest.h"
#include "graph/postorder.h"
#include "graph/transversal.h"
#include "graph/weighted_matching.h"

namespace plu {

namespace {

/// Seconds elapsed since `last`, which is advanced to now -- the phase
/// timer threaded through analyze_pattern.
double lap(std::chrono::steady_clock::time_point& last) {
  auto now = std::chrono::steady_clock::now();
  double s = std::chrono::duration<double>(now - last).count();
  last = now;
  return s;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// The pipeline of analyze_pattern() without the input record.
Analysis analyze_structure(const Pattern& a, const Options& opt);

/// Records the input pattern (original ordering) and its scatter slots under
/// the final permutations; the time counts toward timings.total.
void attach_input(Analysis& an, Pattern input) {
  const auto t0 = std::chrono::steady_clock::now();
  an.input_slots = scatter_slots(an.blocks, input.ptr, input.idx, an.row_perm,
                                 an.col_perm);
  an.input_pattern = std::move(input);
  an.timings.total += seconds_since(t0);
}

}  // namespace

CscMatrix Analysis::permute_input(const CscMatrix& a) const {
  CscMatrix p = a.permuted(row_perm, col_perm);
  if (!scaled()) return p;
  // Scale in the permuted frame: entry (i, j) of p is entry
  // (row_perm.old_of(i), col_perm.old_of(j)) of a.
  std::vector<int> ptr = p.col_ptr();
  std::vector<int> ind = p.row_ind();
  std::vector<double> val = p.values();
  for (int j = 0; j < p.cols(); ++j) {
    double cs = col_scale[col_perm.old_of(j)];
    for (int k = ptr[j]; k < ptr[j + 1]; ++k) {
      val[k] *= row_scale[row_perm.old_of(ind[k])] * cs;
    }
  }
  return CscMatrix(p.rows(), p.cols(), std::move(ptr), std::move(ind),
                   std::move(val));
}

Analysis analyze_pattern(const Pattern& a, const Options& opt) {
  Analysis an = analyze_structure(a, opt);
  attach_input(an, a);
  return an;
}

namespace {

Analysis analyze_structure(const Pattern& a, const Options& opt) {
  if (a.rows != a.cols) {
    throw std::invalid_argument("analyze: matrix must be square");
  }
  Analysis an;
  an.options = opt;
  an.n = a.cols;
  an.nnz_input = a.nnz();

  // Analysis-phase team.  Sequential runs use a single-lane team (every
  // parallel_for inlines); the parallel pipeline is bit-identical, so the
  // knob only ever changes timings.
  int threads = 1;
  const bool parallel =
      opt.analysis.parallel_analyze && an.n >= opt.analysis.min_parallel_n;
  if (parallel) {
    threads = opt.analysis.threads > 0
                  ? opt.analysis.threads
                  : static_cast<int>(std::thread::hardware_concurrency());
    if (threads < 1) threads = 1;
  }
  rt::Team team(threads, opt.analysis.min_step_work);
  an.timings.threads = team.lanes();
  an.timings.parallel = parallel && team.lanes() > 1;

  const auto t_start = std::chrono::steady_clock::now();
  auto last = t_start;

  // (1) Fill-reducing column ordering (minimum degree on A^T A by default);
  // applied to rows as well under symmetric_ordering so an existing
  // diagonal matching survives.  The team is handed to parallel engines
  // (AMD); a single-lane team inlines every fan-out, so the permutation is
  // identical either way (amd.h documents the determinism contract).
  ordering::Controls octl;
  octl.team = &team;
  octl.dry_run = opt.ordering_dry_run;
  Permutation q1 = ordering::compute_column_ordering(a, opt.ordering, octl,
                                                     &an.ordering_decision);
  const bool sym_order = opt.symmetric_ordering || opt.scale_and_permute;
  Pattern a1 = a.permuted(sym_order ? q1 : Permutation(a.rows), q1);
  an.timings.ordering = lap(last);

  // (1b) Maximum transversal for a zero-free diagonal (identity when the
  // diagonal is already structurally full -- the transversal prefers it).
  auto p1 = graph::zero_free_diagonal_permutation(a1);
  if (!p1) {
    throw std::invalid_argument("analyze: matrix is structurally singular");
  }
  Pattern a2 = a1.permuted(*p1, Permutation(a.cols));
  an.timings.transversal = lap(last);

  // (2) Static symbolic factorization and the LU eforest.  The team engine
  // only replaces the default bitset engine; an explicit kRowMerge request
  // stays sequential (it has no parallel twin).
  symbolic::Engine engine = opt.symbolic_engine;
  if (an.timings.parallel && engine == symbolic::Engine::kBitset) {
    engine = symbolic::Engine::kParallelBitset;
  }
  symbolic::SymbolicResult sym =
      symbolic::static_symbolic_factorization(a2, engine, team);
  an.timings.symbolic = lap(last);
  graph::Forest ef = graph::lu_eforest(sym.abar);

  // (3) Postorder the eforest and permute symmetrically (Theorem 3 makes the
  // permuted Abar its own static symbolic factorization, so no recompute).
  Permutation p2(an.n);
  if (opt.postorder) {
    p2 = graph::postorder_permutation(ef);
    sym.abar = graph::apply_symmetric_permutation(sym.abar, p2);
    ef = ef.relabeled(p2);
  }
  an.row_perm = sym_order ? Permutation::compose(Permutation::compose(q1, *p1), p2)
                    : Permutation::compose(*p1, p2);
  an.col_perm = Permutation::compose(q1, p2);
  an.symbolic = std::move(sym);
  an.eforest = std::move(ef);

  // Tree sizes in root order.  Only with postordering are they the diagonal
  // blocks of a block-upper-triangular form; they are reported either way.
  std::vector<int> sz = an.eforest.subtree_sizes();
  for (int r : an.eforest.roots()) an.diag_block_sizes.push_back(sz[r]);
  an.timings.eforest_postorder = lap(last);

  // (4) L/U supernode partitioning and amalgamation (forest-parallel: one
  // greedy scan per root-terminated segment).
  an.exact_partition = symbolic::find_supernodes(an.symbolic.abar, team);
  an.partition =
      opt.amalgamate
          ? symbolic::amalgamate(an.symbolic.abar, an.eforest,
                                 an.exact_partition, opt.amalgamation, team)
          : an.exact_partition;
  an.timings.supernodes = lap(last);

  // (5) Block structure with block-level closure, block eforest; then the
  // structure-aware blocking plan over the finished blocks (one density
  // sweep of Abar, folded into this phase's timing -- it is block
  // bookkeeping, not a new analysis stage).
  an.blocks = symbolic::build_block_structure(an.symbolic.abar, an.partition,
                                              /*apply_closure=*/true, team);
  an.block_plan = symbolic::build_block_plan(an.symbolic.abar, an.blocks, team);
  an.timings.blocks = lap(last);

  // (6) Task dependence graph + cost model; the block-granularity graph
  // too when the 2-D numeric layout will run on this analysis.
  an.graph = taskgraph::build_task_graph(an.blocks, opt.task_graph,
                                         taskgraph::Granularity::kColumn, team);
  an.costs = taskgraph::compute_task_costs(an.blocks, an.graph.tasks, team);
  if (opt.layout == Layout::k2D) {
    an.block_graph = taskgraph::build_task_graph(
        an.blocks, opt.task_graph, taskgraph::Granularity::kBlock, team);
  }
  an.timings.taskgraph = lap(last);
  an.timings.total = seconds_since(t_start);
  return an;
}

}  // namespace

Analysis analyze(const CscMatrix& a, const Options& opt) {
  if (!opt.scale_and_permute) {
    return analyze_pattern(a.pattern(), opt);
  }
  // MC64 preprocessing: maximize the diagonal product, scale to an
  // I-matrix, then run the regular pipeline on the preprocessed matrix.
  auto wm = graph::max_product_transversal(a);
  if (!wm) {
    throw std::invalid_argument("analyze: matrix is structurally singular");
  }
  // Row-permuted pattern (values are irrelevant to the pattern pipeline;
  // the big-diagonal property makes the inner transversal the identity).
  Pattern pre = a.pattern().permuted(wm->row_perm, Permutation(a.cols()));
  Analysis an = analyze_structure(pre, opt);
  an.row_perm = Permutation::compose(wm->row_perm, an.row_perm);
  an.row_scale = std::move(wm->row_scale);
  an.col_scale = std::move(wm->col_scale);
  // The slots need the composed row_perm, so they are built only now.
  attach_input(an, a.pattern());
  return an;
}

}  // namespace plu
