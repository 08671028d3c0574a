// The textbook triple-loop gemm: the oracle the blocked engines are tested
// against.
#pragma once

#include <cassert>

#include "blas/level3.h"

namespace plu::blas {

/// C := alpha * op(A) * op(B) + beta * C  (naive triple loop).
inline void gemm_reference(Trans transa, Trans transb, double alpha,
                           ConstMatrixView a, ConstMatrixView b, double beta,
                           MatrixView c) {
  const int m = (transa == Trans::No) ? a.rows : a.cols;
  const int k = (transa == Trans::No) ? a.cols : a.rows;
  const int n = (transb == Trans::No) ? b.cols : b.rows;
  assert(((transb == Trans::No) ? b.rows : b.cols) == k);
  assert(c.rows == m && c.cols == n);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) c(i, j) = beta == 0.0 ? 0.0 : beta * c(i, j);
  }
  if (alpha == 0.0) return;
  auto aa = [&](int i, int p) { return (transa == Trans::No) ? a(i, p) : a(p, i); };
  auto bb = [&](int p, int j) { return (transb == Trans::No) ? b(p, j) : b(j, p); };
  for (int j = 0; j < n; ++j) {
    for (int p = 0; p < k; ++p) {
      double bpj = alpha * bb(p, j);
      if (bpj == 0.0) continue;
      for (int i = 0; i < m; ++i) c(i, j) += aa(i, p) * bpj;
    }
  }
}

}  // namespace plu::blas
