#include "graph/weighted_matching.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>
#include <stdexcept>

namespace plu::graph {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct HeapEntry {
  double dist;
  int row;
  bool operator>(const HeapEntry& o) const {
    if (dist != o.dist) return dist > o.dist;
    return row > o.row;
  }
};

}  // namespace

std::optional<WeightedMatching> max_product_transversal(const CscMatrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument(
        "max_product_transversal: matrix must be square");
  }
  const int n = a.cols();

  // Costs: c(i,j) = log(colmax_j) - log|a_ij| >= 0, zeros excluded.
  std::vector<double> colmax_log(n, -kInf);
  for (int j = 0; j < n; ++j) {
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      double v = std::abs(a.value(k));
      if (v > 0.0) colmax_log[j] = std::max(colmax_log[j], std::log(v));
    }
    if (colmax_log[j] == -kInf) return std::nullopt;  // empty column
  }
  auto cost = [&](int k, int j) {
    double v = std::abs(a.value(k));
    return colmax_log[j] - std::log(v);
  };

  std::vector<double> u(n, 0.0);  // row potentials
  std::vector<double> v(n, 0.0);  // column potentials
  std::vector<int> row_to_col(n, -1);
  std::vector<int> col_to_row(n, -1);

  // Cheap initialization: greedily match each column to its maximal entry
  // (cost 0) when that row is free; sets v = 0, u = 0 consistently since
  // all reduced costs stay >= 0.
  for (int j = 0; j < n; ++j) {
    for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
      double val = std::abs(a.value(k));
      if (val > 0.0 && cost(k, j) == 0.0 && row_to_col[a.row_index(k)] == -1) {
        row_to_col[a.row_index(k)] = j;
        col_to_row[j] = a.row_index(k);
        break;
      }
    }
  }

  // Dijkstra state reused across columns.
  std::vector<double> d(n, kInf);
  std::vector<int> prev_col(n, -1);
  std::vector<char> finalized(n, 0);
  std::vector<int> touched;

  for (int j0 = 0; j0 < n; ++j0) {
    if (col_to_row[j0] != -1) continue;
    // Shortest augmenting path from column j0 to a free row.
    touched.clear();
    std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<HeapEntry>>
        heap;
    auto relax_column = [&](int j, double base) {
      for (int k = a.col_begin(j); k < a.col_end(j); ++k) {
        if (a.value(k) == 0.0) continue;
        int i = a.row_index(k);
        if (finalized[i]) continue;
        double nd = base + cost(k, j) - u[i] - v[j];
        if (nd < d[i] - 1e-30) {
          if (d[i] == kInf) touched.push_back(i);
          d[i] = nd;
          prev_col[i] = j;
          heap.push({nd, i});
        }
      }
    };
    relax_column(j0, 0.0);

    int free_row = -1;
    double path_len = kInf;
    std::vector<int> final_rows;
    while (!heap.empty()) {
      HeapEntry top = heap.top();
      heap.pop();
      int i = top.row;
      if (finalized[i] || top.dist > d[i]) continue;
      finalized[i] = 1;
      final_rows.push_back(i);
      if (row_to_col[i] == -1) {
        free_row = i;
        path_len = d[i];
        break;
      }
      relax_column(row_to_col[i], d[i]);
    }
    if (free_row == -1) {
      return std::nullopt;  // structurally singular
    }
    // Dual update keeping reduced costs >= 0 and matched edges tight.
    for (int i : final_rows) {
      if (i == free_row) continue;
      u[i] += d[i] - path_len;
      v[row_to_col[i]] += path_len - d[i];
    }
    v[j0] += path_len;
    // Augment along prev_col.
    int i = free_row;
    while (i != -1) {
      int j = prev_col[i];
      int next_i = col_to_row[j];
      col_to_row[j] = i;
      row_to_col[i] = j;
      i = next_i;
    }
    // Reset scratch state.
    for (int t : touched) {
      d[t] = kInf;
      prev_col[t] = -1;
      finalized[t] = 0;
    }
  }

  WeightedMatching res;
  // new row position j holds old row col_to_row[j] so the matched entry
  // lands on the diagonal.
  res.row_perm = Permutation::from_old_positions(col_to_row);
  // Scalings from the duals: with c = log colmax - log|a|, tight edges have
  // log|a_ij| = log colmax_j - u_i - v_j, so
  //   row_scale_i = e^{u_i},  col_scale_j = e^{v_j} / colmax_j
  // gives |r_i a_ij c_j| = e^{u_i + v_j + log|a| - log colmax} <= 1 (since
  // reduced costs are >= 0), with equality on matched entries.
  res.row_scale.resize(n);
  res.col_scale.resize(n);
  for (int i = 0; i < n; ++i) res.row_scale[i] = std::exp(u[i]);
  for (int j = 0; j < n; ++j) res.col_scale[j] = std::exp(v[j] - colmax_log[j]);
  res.log_product = 0.0;
  for (int j = 0; j < n; ++j) {
    res.log_product += std::log(std::abs(a.at(col_to_row[j], j)));
  }
  return res;
}

}  // namespace plu::graph
