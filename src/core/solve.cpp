#include "core/solve.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string>

namespace plu {

namespace {

/// Parity sign of a permutation given in gather form.
int permutation_sign(const std::vector<int>& old_of) {
  const int n = static_cast<int>(old_of.size());
  std::vector<char> seen(n, 0);
  int transpositions = 0;
  for (int i = 0; i < n; ++i) {
    if (seen[i]) continue;
    int len = 0;
    int j = i;
    while (!seen[j]) {
      seen[j] = 1;
      j = old_of[j];
      ++len;
    }
    transpositions += len - 1;
  }
  return (transpositions % 2 == 0) ? 1 : -1;
}

/// The backward (suffix) composition of the deferred interchanges; the
/// forward one is pivot_old_of.  For k = nb-1 down to 0 it calls
/// visit(k, rows, pos), rows = panel k's global rows, pos[r] = the final
/// (eager-getrf) position of the row at global row r when panel k ran;
/// then it folds panel k's interchanges into pos.
template <class Visit>
void walk_eager_positions(const Factorization& f, Visit&& visit) {
  const Analysis& an = f.analysis();
  std::vector<int> pos(an.n);
  std::iota(pos.begin(), pos.end(), 0);
  std::vector<int> rows;
  for (int k = an.blocks.num_blocks() - 1; k >= 0; --k) {
    panel_rows(an, k, rows);
    visit(k, rows, pos);
    undo_interchanges(f.panel_ipiv(k), rows, pos.data());
  }
}

}  // namespace

void panel_rows(const Analysis& an, int k, std::vector<int>& rows) {
  const symbolic::SupernodePartition& part = an.blocks.part;
  rows.resize(part.width(k));
  std::iota(rows.begin(), rows.end(), part.first(k));
  for (int t : an.block_plan.columns[k].l_list) {
    for (int r = part.first(t); r < part.end(t); ++r) rows.push_back(r);
  }
}

SolveTrees solve_trees(const Analysis& an) {
  const symbolic::BlockStructure& bs = an.blocks;
  const graph::Forest& forest = bs.beforest;
  const int nb = bs.num_blocks();
  SolveTrees st;
  st.bounds = {0, nb};
  if (nb == 0 || forest.size() != nb || !forest.is_topological()) return st;
  // Root of each block's tree; a parent comes after its children.
  std::vector<int> root(nb);
  for (int k = nb - 1; k >= 0; --k) {
    root[k] = forest.is_root(k) ? k : root[forest.parent(k)];
  }
  std::vector<int> bounds{0};
  for (int k = 1; k < nb; ++k) {
    if (root[k] != root[k - 1]) bounds.push_back(k);
  }
  bounds.push_back(nb);
  const int trees = static_cast<int>(bounds.size()) - 1;
  if (trees == 1) return st;
  std::vector<int> tree_of(nb);
  std::vector<std::vector<int>> writers(trees);
  for (int t = 0; t < trees; ++t) {
    for (int k = bounds[t]; k < bounds[t + 1]; ++k) {
      // A contiguous postordered tree ends at its root, and its L blocks
      // stay inside it.
      if (root[k] != bounds[t + 1] - 1) return st;
      tree_of[k] = t;
      for (const int* i = bs.bpattern.col_begin(k); i != bs.bpattern.col_end(k);
           ++i) {
        if (*i >= bounds[t + 1]) return st;
        if (*i < bounds[t]) writers[tree_of[*i]].push_back(t);
      }
    }
  }
  st.bounds = std::move(bounds);
  st.succ.assign(2 * trees, {});
  for (int t = 0; t < trees; ++t) {
    st.succ[t].push_back(trees + t);
    std::vector<int>& w = writers[t];
    if (w.empty()) continue;
    std::sort(w.begin(), w.end(), std::greater<>());
    w.erase(std::unique(w.begin(), w.end()), w.end());
    st.succ[t].push_back(trees + w.front());
    for (std::size_t p = 0; p + 1 < w.size(); ++p) {
      st.succ[trees + w[p]].push_back(trees + w[p + 1]);
    }
    st.succ[trees + w.back()].push_back(trees + t);
  }
  st.indegree.assign(2 * trees, 0);
  for (std::vector<int>& s : st.succ) {
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    for (int v : s) ++st.indegree[v];
  }
  return st;
}

blas::DenseMatrix solve_prologue(const Factorization& f, const char* what,
                                 blas::ConstMatrixView b,
                                 blas::ConstMatrixView x,
                                 const std::vector<int>& gather,
                                 const std::vector<double>& scale) {
  f.require_usable(what);
  if (f.partial()) {
    throw std::logic_error(std::string(what) +
                           ": factorization is partial (Schur mode)");
  }
  const int n = f.analysis().n;
  if (b.rows != n || x.rows != n || x.cols != b.cols) {
    throw std::invalid_argument(std::string(what) + ": rhs shape mismatch");
  }
  blas::DenseMatrix y(n, b.cols);
  for (int r = 0; r < b.cols; ++r) {
    for (int i = 0; i < n; ++i) {
      const int old = gather[i];
      y(i, r) = scale.empty() ? b(old, r) : scale[old] * b(old, r);
    }
  }
  return y;
}

void solve_epilogue(blas::ConstMatrixView y, const std::vector<int>& scatter,
                    const std::vector<double>& scale, blas::MatrixView x) {
  for (int r = 0; r < y.cols; ++r) {
    for (int j = 0; j < y.rows; ++j) {
      const int old = scatter[j];
      x(old, r) = scale.empty() ? y(j, r) : scale[old] * y(j, r);
    }
  }
}

std::vector<int> pivot_old_of(const Factorization& f) {
  const Analysis& an = f.analysis();
  std::vector<int> cur(an.n);
  std::iota(cur.begin(), cur.end(), 0);
  std::vector<int> rows;
  for (int k = 0; k < an.blocks.num_blocks(); ++k) {
    panel_rows(an, k, rows);
    const std::vector<int>& piv = f.panel_ipiv(k);
    for (std::size_t c = 0; c < piv.size(); ++c) {
      if (piv[c] != static_cast<int>(c)) {
        std::swap(cur[rows[c]], cur[rows[piv[c]]]);
      }
    }
  }
  return cur;
}

Determinant determinant(const Factorization& f) {
  const Analysis& an = f.analysis();
  Determinant d;
  d.log_abs = 0.0;
  int sign = 1;
  const symbolic::SupernodePartition& part = an.blocks.part;
  for (int k = 0; k < an.blocks.num_blocks(); ++k) {
    blas::ConstMatrixView panel = f.blocks().panel(k);
    const int wk = part.width(k);
    for (int c = 0; c < wk; ++c) {
      double u = panel(c, c);
      if (u == 0.0) {
        d.sign = 0;
        d.log_abs = -std::numeric_limits<double>::infinity();
        return d;
      }
      if (u < 0.0) sign = -sign;
      d.log_abs += std::log(std::abs(u));
    }
  }
  if (f.pivot_interchanges() % 2 != 0) sign = -sign;
  sign *= permutation_sign(an.row_perm.old_positions());
  sign *= permutation_sign(an.col_perm.old_positions());
  // Apre = Pr Dr A Dc Qc-style scaling: divide the scales back out (they
  // are positive, so the sign is unaffected).
  if (an.scaled()) {
    for (double r : an.row_scale) d.log_abs -= std::log(r);
    for (double c : an.col_scale) d.log_abs -= std::log(c);
  }
  d.sign = sign;
  return d;
}

double inverse_norm1_estimate(const Factorization& f, int max_iterations) {
  const int n = f.analysis().n;
  if (n == 0) return 0.0;
  // Higham's 1-norm estimator: power iteration on |A^{-1}| using solves
  // with A and A^T, steering with the sign vector.
  std::vector<double> x(n, 1.0 / n);
  double best = 0.0;
  int last_unit = -1;
  for (int it = 0; it < max_iterations; ++it) {
    std::vector<double> y = f.solve(x);  // y = A^{-1} x
    double norm_y = 0.0;
    for (double v : y) norm_y += std::abs(v);
    best = std::max(best, norm_y);
    std::vector<double> xi(n);
    for (int i = 0; i < n; ++i) xi[i] = (y[i] >= 0.0) ? 1.0 : -1.0;
    std::vector<double> z = f.solve_transpose(xi);  // z = A^{-T} xi
    // Convergence test: max |z_j| <= z^T x means the current x is optimal.
    int j = 0;
    double zmax = 0.0, ztx = 0.0;
    for (int i = 0; i < n; ++i) {
      if (std::abs(z[i]) > zmax) {
        zmax = std::abs(z[i]);
        j = i;
      }
      ztx += z[i] * x[i];
    }
    if (zmax <= ztx + 1e-15 * std::abs(ztx) || j == last_unit) break;
    std::fill(x.begin(), x.end(), 0.0);
    x[j] = 1.0;
    last_unit = j;
  }
  // Alternate lower bound from the classic "staircase" vector, which guards
  // against adversarial cancellation in the power iteration.
  std::vector<double> v(n);
  for (int i = 0; i < n; ++i) {
    v[i] = (i % 2 == 0 ? 1.0 : -1.0) * (1.0 + static_cast<double>(i) / (n - 1 + 1e-300));
  }
  std::vector<double> w = f.solve(v);
  double alt = 0.0;
  for (double t : w) alt += std::abs(t);
  alt = 2.0 * alt / (3.0 * n);
  return std::max(best, alt);
}

ConditionEstimate estimate_condition(const Factorization& f, const CscMatrix& a) {
  ConditionEstimate c;
  c.norm_a = a.norm1();
  c.norm_ainv = inverse_norm1_estimate(f);
  c.cond1 = c.norm_a * c.norm_ainv;
  return c;
}

double pivot_growth(const Factorization& f, const CscMatrix& a) {
  const Analysis& an = f.analysis();
  const symbolic::SupernodePartition& part = an.blocks.part;
  const BlockMatrix& bm = f.blocks();
  // max|U| over the stored factor: the upper triangle of every diagonal
  // block plus all U blocks.
  double umax = 0.0;
  for (int k = 0; k < an.blocks.num_blocks(); ++k) {
    const int wk = part.width(k);
    blas::ConstMatrixView diag = bm.panel(k).block(0, 0, wk, wk);
    for (int c = 0; c < wk; ++c) {
      for (int r = 0; r <= c; ++r) umax = std::max(umax, std::abs(diag(r, c)));
    }
    for (int i : bm.column_blocks(k)) {
      if (i >= k) break;
      umax = std::max(umax, blas::max_abs(bm.block(i, k)));
    }
  }
  // max|Apre| directly from the input entries and the scalings (the
  // permutations do not change the set of magnitudes).
  double amax = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    double cs = an.scaled() ? an.col_scale[j] : 1.0;
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      double rs = an.scaled() ? an.row_scale[a.row_index(k)] : 1.0;
      amax = std::max(amax, std::abs(rs * a.value(k) * cs));
    }
  }
  return amax > 0.0 ? umax / amax : 0.0;
}

blas::DenseMatrix extract_l_dense(const Factorization& f) {
  // Deferred pivoting never replays a panel's swaps on columns LEFT of the
  // panel, so the stored L column k sits at the row positions current at
  // panel k's time.  The eager-getrf L (the one satisfying L U = P Apre)
  // has those rows additionally moved by every later panel's swaps, which
  // is the suffix composition walk_eager_positions hands to each panel.
  const Analysis& an = f.analysis();
  const int n = an.n;
  blas::DenseMatrix l(n, n);
  for (int i = 0; i < n; ++i) l(i, i) = 1.0;
  const symbolic::SupernodePartition& part = an.blocks.part;
  walk_eager_positions(f, [&](int k, const std::vector<int>& rows,
                              const std::vector<int>& pos) {
    blas::ConstMatrixView panel = f.blocks().panel(k);
    for (int c = 0; c < part.width(k); ++c) {
      const int col = part.first(k) + c;
      for (std::size_t r = c + 1; r < rows.size(); ++r) {
        double v = panel(static_cast<int>(r), c);
        if (v != 0.0) l(pos[rows[r]], col) = v;
      }
    }
  });
  return l;
}

blas::DenseMatrix extract_u_dense(const Factorization& f) {
  const Analysis& an = f.analysis();
  const int n = an.n;
  blas::DenseMatrix u(n, n);
  const symbolic::SupernodePartition& part = an.blocks.part;
  const BlockMatrix& bm = f.blocks();
  for (int j = 0; j < an.blocks.num_blocks(); ++j) {
    for (int i : bm.column_blocks(j)) {
      if (i > j) break;
      blas::ConstMatrixView b = bm.block(i, j);
      for (int c = 0; c < b.cols; ++c) {
        for (int r = 0; r < b.rows; ++r) {
          const int grow = part.first(i) + r;
          const int gcol = part.first(j) + c;
          if (grow <= gcol) u(grow, gcol) = b(r, c);
        }
      }
    }
  }
  return u;
}

}  // namespace plu
