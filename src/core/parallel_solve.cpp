#include "core/parallel_solve.h"

#include <algorithm>
#include <cassert>

#include "blas/level2.h"
#include "core/solve.h"
#include "runtime/dag_executor.h"

namespace plu {

namespace {

void add_edge_unique(std::vector<std::vector<int>>& succ, std::vector<int>& indeg,
                     int from, int to) {
  auto& s = succ[from];
  if (std::find(s.begin(), s.end(), to) != s.end()) return;
  s.push_back(to);
  ++indeg[to];
}

}  // namespace

ParallelSolver::ParallelSolver(const Factorization& f) : f_(&f) {
  const Analysis& an = f.analysis();
  const symbolic::SupernodePartition& part = an.blocks.part;
  const int nb = an.blocks.num_blocks();

  // Eager positions of every panel's below-diagonal rows (the backward
  // suffix walk, as extract_l_dense uses it).
  eager_rows_.assign(nb, {});
  walk_eager_positions(f, [&](int k, const std::vector<int>& rows,
                              const std::vector<int>& pos) {
    for (std::size_t r = part.width(k); r < rows.size(); ++r) {
      eager_rows_[k].push_back(pos[rows[r]]);
    }
  });

  // gather_[r] = input row that lands at eager position r: the forward
  // composition of the interchanges, then the analysis row permutation.
  gather_ = pivot_old_of(f);
  for (int& r : gather_) r = an.row_perm.old_of(r);

  // Forward DAG: consumer edges k -> block(eager position).
  fwd_succ_.assign(nb, {});
  fwd_indeg_.assign(nb, 0);
  for (int k = 0; k < nb; ++k) {
    for (int p : eager_rows_[k]) {
      int t = part.supernode_of(p);
      assert(t > k);  // contributions always go strictly downward
      add_edge_unique(fwd_succ_, fwd_indeg_, k, t);
    }
  }

  // Backward DAG: consumer edges k -> i for every U block (i, k).
  bwd_succ_.assign(nb, {});
  bwd_indeg_.assign(nb, 0);
  for (int k = 0; k < nb; ++k) {
    for (const int* it = an.blocks.bpattern.col_begin(k);
         it != an.blocks.bpattern.col_end(k) && *it < k; ++it) {
      add_edge_unique(bwd_succ_, bwd_indeg_, k, *it);
    }
  }

  row_locks_ = std::make_unique<std::vector<std::mutex>>(nb);
}

std::vector<double> ParallelSolver::solve(const std::vector<double>& b,
                                          int threads) const {
  const Factorization& f = *f_;
  const Analysis& an = f.analysis();
  const symbolic::SupernodePartition& part = an.blocks.part;
  const int n = static_cast<int>(b.size());
  std::vector<double> x(b.size());
  const blas::MatrixView xv(x.data(), n, 1);
  // y = Phat Pr b, both permutations folded into gather_ (plus the MC64
  // row scaling when present).
  blas::DenseMatrix yd = solve_prologue(f, "ParallelSolver::solve",
                                        {b.data(), n, 1}, xv, gather_,
                                        an.row_scale);
  double* y = yd.data();

  const BlockMatrix& bm = f.blocks();
  auto forward_step = [&](int k) {
    const int wk = part.width(k);
    double* yk = y + part.first(k);
    blas::ConstMatrixView panel = bm.panel(k);
    blas::trsv(blas::UpLo::Lower, blas::Trans::No, blas::Diag::Unit,
               panel.block(0, 0, wk, wk), yk, 1);
    const int below = static_cast<int>(eager_rows_[k].size());
    if (below == 0) return;
    std::vector<double> contrib(below, 0.0);
    blas::gemv(blas::Trans::No, 1.0, panel.block(wk, 0, below, wk), yk, 1, 0.0,
               contrib.data(), 1);
    // Scatter-subtract under per-block locks, grouping runs by target block
    // to bound lock traffic.
    int r = 0;
    while (r < below) {
      int t = part.supernode_of(eager_rows_[k][r]);
      int e = r;
      while (e < below && part.supernode_of(eager_rows_[k][e]) == t) ++e;
      {
        std::lock_guard<std::mutex> lock((*row_locks_)[t]);
        for (int q = r; q < e; ++q) y[eager_rows_[k][q]] -= contrib[q];
      }
      r = e;
    }
  };
  rt::ExecutionReport fwd =
      rt::execute_dag(fwd_succ_, fwd_indeg_, threads, forward_step);
  assert(fwd.completed);
  (void)fwd;

  auto backward_step = [&](int k) {
    const int wk = part.width(k);
    double* yk = y + part.first(k);
    blas::trsv(blas::UpLo::Upper, blas::Trans::No, blas::Diag::NonUnit,
               bm.panel(k).block(0, 0, wk, wk), yk, 1);
    for (int i : bm.column_blocks(k)) {
      if (i >= k) break;
      std::lock_guard<std::mutex> lock((*row_locks_)[i]);
      blas::gemv(blas::Trans::No, -1.0, bm.block(i, k), yk, 1, 1.0,
                 y + part.first(i), 1);
    }
  };
  rt::ExecutionReport bwd =
      rt::execute_dag(bwd_succ_, bwd_indeg_, threads, backward_step);
  assert(bwd.completed);
  (void)bwd;

  solve_epilogue(yd.view(), an.col_perm.old_positions(), an.col_scale, xv);
  return x;
}

std::vector<double> ParallelSolver::forward_flops() const {
  const Analysis& an = f_->analysis();
  const symbolic::SupernodePartition& part = an.blocks.part;
  const int nb = an.blocks.num_blocks();
  std::vector<double> flops(nb, 0.0);
  for (int k = 0; k < nb; ++k) {
    const double wk = part.width(k);
    flops[k] = wk * wk + 2.0 * static_cast<double>(eager_rows_[k].size()) * wk;
  }
  return flops;
}

std::vector<double> ParallelSolver::backward_flops() const {
  const Analysis& an = f_->analysis();
  const symbolic::SupernodePartition& part = an.blocks.part;
  const int nb = an.blocks.num_blocks();
  std::vector<double> flops(nb, 0.0);
  for (int k = 0; k < nb; ++k) {
    const double wk = part.width(k);
    double above = 0;
    for (const int* it = an.blocks.bpattern.col_begin(k);
         it != an.blocks.bpattern.col_end(k) && *it < k; ++it) {
      above += part.width(*it);
    }
    flops[k] = wk * wk + 2.0 * above * wk;
  }
  return flops;
}

}  // namespace plu
