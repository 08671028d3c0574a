#include "blas/level3.h"

#include "blas/level1.h"
#include "blas/scratch.h"
#include "blas/tunables.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>

namespace plu::blas {

namespace {

// Microkernel register tile and cache-blocking shape; the constants live in
// blas/tunables.h with the other routing thresholds so they cannot drift
// apart from the callers that reason about them.
using tunables::kKc;
using tunables::kMc;
using tunables::kMr;
using tunables::kNc;
using tunables::kNr;
using tunables::kTrsmNb;

void scale_c(double beta, MatrixView c) {
  if (beta == 1.0) return;
  for (int j = 0; j < c.cols; ++j) {
    double* cj = c.col(j);
    if (beta == 0.0) {
      std::fill(cj, cj + c.rows, 0.0);
    } else {
      for (int i = 0; i < c.rows; ++i) cj[i] *= beta;
    }
  }
}

// Packs op(A)(ic:ic+mb, pc:pc+kb) into contiguous micro-panels of kMr rows
// (panel for rows [ir, ir+kMr) occupies kMr*kb doubles at dst + ir*kb),
// zero-padding the ragged last panel so the microkernel always runs the
// full register tile.
void pack_a(Trans tr, ConstMatrixView a, int ic, int pc, int mb, int kb,
            double* dst) {
  for (int ir = 0; ir < mb; ir += kMr) {
    const int m = std::min(kMr, mb - ir);
    if (tr == Trans::No) {
      const double* src =
          a.data + static_cast<std::size_t>(pc) * a.ld + ic + ir;
      for (int p = 0; p < kb; ++p) {
        const double* col = src + static_cast<std::size_t>(p) * a.ld;
        int i = 0;
        for (; i < m; ++i) dst[i] = col[i];
        for (; i < kMr; ++i) dst[i] = 0.0;
        dst += kMr;
      }
    } else {
      for (int p = 0; p < kb; ++p) {
        int i = 0;
        for (; i < m; ++i) dst[i] = a.data[static_cast<std::size_t>(ic + ir + i) * a.ld + pc + p];
        for (; i < kMr; ++i) dst[i] = 0.0;
        dst += kMr;
      }
    }
  }
}

// Packs op(B)(pc:pc+kb, jc:jc+nb) into micro-panels of kNr columns with
// alpha folded in (panel for columns [jr, jr+kNr) lives at dst + jr*kb).
// While packing it also records, per panel and per k-index, whether the
// packed row is entirely zero (mask + (jr/kNr)*kb): factorization blocks
// carry real zeros from the static symbolic structure, and because a
// supernode's columns share one row structure those zeros arrive as whole
// zero ROWS of the block -- the microkernel skips them outright, which is
// what keeps the packed engine competitive with the zero-skipping scalar
// kernel on sparse panels.
bool pack_b(Trans tr, double alpha, ConstMatrixView b, int pc, int jc, int kb,
            int nb, double* dst, unsigned char* mask) {
  bool any_zero_row = false;
  for (int jr = 0; jr < nb; jr += kNr) {
    const int n = std::min(kNr, nb - jr);
    for (int p = 0; p < kb; ++p) {
      double any = 0.0;
      int j = 0;
      if (tr == Trans::No) {
        for (; j < n; ++j) {
          const double v =
              b.data[static_cast<std::size_t>(jc + jr + j) * b.ld + pc + p];
          any += std::abs(v);
          dst[j] = alpha * v;
        }
      } else {
        for (; j < n; ++j) {
          const double v =
              b.data[static_cast<std::size_t>(pc + p) * b.ld + jc + jr + j];
          any += std::abs(v);
          dst[j] = alpha * v;
        }
      }
      for (; j < kNr; ++j) dst[j] = 0.0;
      mask[p] = (any != 0.0);
      any_zero_row |= (any == 0.0);
      dst += kNr;
    }
    mask += kb;
  }
  return any_zero_row;
}

// C(0:m, 0:n) += ap * bp over packed micro-panels.  The accumulator tile is
// always the full kMr x kNr (the packs are zero-padded), kept in a local
// array the compiler promotes to registers; only the valid m x n corner is
// written back, so ragged edges cost nothing extra in the k-loop.
void micro_kernel(int kb, const double* ap, const double* bp,
                  const unsigned char* mask, double* c, int ldc, int m,
                  int n) {
  double acc[kMr * kNr] = {};
  if (mask == nullptr) {  // fully dense panel: branch-free k-loop
    for (int p = 0; p < kb; ++p) {
      const double* a = ap + static_cast<std::size_t>(p) * kMr;
      const double* b = bp + static_cast<std::size_t>(p) * kNr;
      for (int j = 0; j < kNr; ++j) {
        const double bj = b[j];
        double* accj = acc + j * kMr;
        for (int i = 0; i < kMr; ++i) accj[i] += a[i] * bj;
      }
    }
  } else {
    for (int p = 0; p < kb; ++p) {
      if (!mask[p]) continue;  // whole packed B row is zero
      const double* a = ap + static_cast<std::size_t>(p) * kMr;
      const double* b = bp + static_cast<std::size_t>(p) * kNr;
      for (int j = 0; j < kNr; ++j) {
        const double bj = b[j];
        double* accj = acc + j * kMr;
        for (int i = 0; i < kMr; ++i) accj[i] += a[i] * bj;
      }
    }
  }
  if (m == kMr && n == kNr) {
    for (int j = 0; j < kNr; ++j) {
      double* cj = c + static_cast<std::size_t>(j) * ldc;
      const double* accj = acc + j * kMr;
      for (int i = 0; i < kMr; ++i) cj[i] += accj[i];
    }
  } else {
    for (int j = 0; j < n; ++j) {
      double* cj = c + static_cast<std::size_t>(j) * ldc;
      const double* accj = acc + j * kMr;
      for (int i = 0; i < m; ++i) cj[i] += accj[i];
    }
  }
}

// Engine choice.  The packed engine wins on large DENSE operations; on the
// factorization's own Schur updates the blocks carry real numeric zeros
// from the static symbolic structure, and the direct kernel's per-column
// zero-operand skipping recovers more time than the microkernel's vector
// throughput (the packed engine can only skip whole packed rows).  So gemm
// routes to the packed engine when the operation is big enough to amortize
// packing (m*n*k >= tunables::kPackThreshold) AND a cheap O(k*n) scan
// finds op(B) essentially free of zeros; everything else takes the direct
// engine.  Both tests are exported (gemm_pack_worthwhile /
// gemm_b_dense_enough) so hint-passing callers reproduce the auto
// decision exactly.

// Row batches.  Both engines walk the C rows of a gemm_rows call in
// batches of at most kMc rows, each batch a list of pieces of the caller's
// runs (a run longer than the room left is split).  For the packed engine
// a piece counts rounded up to whole kMr micro-panels, so a batch's packed
// A always fits the kMc x kKc buffer.  A plain gemm is the one-run case,
// whose batches are exactly the historical kMc row blocks.
struct RunCursor {
  int run = 0;  // index into the runs
  int off = 0;  // rows of that run already consumed
};

// Fills out[] (room for kMc pieces) with the batch starting at `at`,
// advances `at` past it and returns the piece count.
int next_batch(const RowSpan* runs, int nruns, RunCursor& at, bool pad,
               RowSpan* out) {
  int room = kMc;
  int np = 0;
  while (at.run < nruns && room > 0) {
    const RowSpan& r = runs[at.run];
    const int take = std::min(r.rows - at.off, room);
    out[np++] = {r.a_row + at.off, r.c_row + at.off, take};
    room -= pad ? (take + kMr - 1) / kMr * kMr : take;
    at.off += take;
    if (at.off == r.rows) {
      ++at.run;
      at.off = 0;
    }
  }
  return np;
}

// Direct engine, No/No: C(runs) += alpha * A(runs) * B, column-major,
// stride-1 over rows.  Each k-chunk of B column j is read once per batch,
// 4 entries at a time; a group of four zeros is skipped entirely, and a
// nonzero group updates every piece of the batch.  Per C element this is
// the same sequence of operations for any split of the rows into runs:
// the kKc chunks and the 4-wide groups are counted from p = 0.
void direct_rows(double alpha, ConstMatrixView a, ConstMatrixView b,
                 MatrixView c, const RowSpan* runs, int nruns) {
  const int n = b.cols;
  const int k = b.rows;
  const std::size_t lda = a.ld;
  RowSpan piece[kMc];
  for (int jc = 0; jc < n; jc += kNc) {
    const int nb = std::min(kNc, n - jc);
    for (int pc = 0; pc < k; pc += kKc) {
      const int kb = std::min(kKc, k - pc);
      const double* ab = a.data + static_cast<std::size_t>(pc) * lda;
      RunCursor at;
      while (at.run < nruns) {
        const int np = next_batch(runs, nruns, at, false, piece);
        for (int j = jc; j < jc + nb; ++j) {
          double* cj = c.data + static_cast<std::size_t>(j) * c.ld;
          const double* bj = b.data + static_cast<std::size_t>(j) * b.ld + pc;
          int p = 0;
          for (; p + 4 <= kb; p += 4) {
            const double b0 = alpha * bj[p];
            const double b1 = alpha * bj[p + 1];
            const double b2 = alpha * bj[p + 2];
            const double b3 = alpha * bj[p + 3];
            if (b0 == 0.0 && b1 == 0.0 && b2 == 0.0 && b3 == 0.0) continue;
            const double* a0 = ab + static_cast<std::size_t>(p) * lda;
            const double* a1 = a0 + lda;
            const double* a2 = a1 + lda;
            const double* a3 = a2 + lda;
            for (int q = 0; q < np; ++q) {
              const int ar = piece[q].a_row;
              double* ci = cj + piece[q].c_row;
              for (int i = 0; i < piece[q].rows; ++i) {
                ci[i] += b0 * a0[ar + i] + b1 * a1[ar + i] + b2 * a2[ar + i] +
                         b3 * a3[ar + i];
              }
            }
          }
          for (; p < kb; ++p) {
            const double bpj = alpha * bj[p];
            if (bpj == 0.0) continue;
            const double* ap = ab + static_cast<std::size_t>(p) * lda;
            for (int q = 0; q < np; ++q) {
              const double* ai = ap + piece[q].a_row;
              double* ci = cj + piece[q].c_row;
              for (int i = 0; i < piece[q].rows; ++i) ci[i] += ai[i] * bpj;
            }
          }
        }
      }
    }
  }
}

// Direct (non-packing) engine: the row kernel above for the common No/No
// case; index lambdas for the transpose cases (rare and small below the
// pack threshold).
void gemm_direct(Trans transa, Trans transb, double alpha, ConstMatrixView a,
                 ConstMatrixView b, MatrixView c, int m, int n, int k) {
  if (transa == Trans::No && transb == Trans::No) {
    const RowSpan all{0, 0, m};
    direct_rows(alpha, a, b, c, &all, 1);
    return;
  }
  auto aa = [&](int i, int p) { return (transa == Trans::No) ? a(i, p) : a(p, i); };
  auto bb = [&](int p, int j) { return (transb == Trans::No) ? b(p, j) : b(j, p); };
  for (int j = 0; j < n; ++j) {
    for (int p = 0; p < k; ++p) {
      const double bpj = alpha * bb(p, j);
      if (bpj == 0.0) continue;
      for (int i = 0; i < m; ++i) c(i, j) += aa(i, p) * bpj;
    }
  }
}

// Unblocked right-side solve X op(A) = B via column operations -- the
// pre-blocking kernel, now only ever applied to kTrsmNb-wide diagonal
// blocks (the inter-block work goes through one gemm per block instead of
// per-column axpy chains).
void trsm_right_unblocked(UpLo uplo, Trans trans, Diag diag, ConstMatrixView a,
                          MatrixView b) {
  const int n = a.rows;
  // B(:,dst) += coeff * B(:,src).
  auto axpy_col = [&b](int dst, int src, double coeff) {
    axpy(b.rows, coeff, b.col(src), 1, b.col(dst), 1);
  };
  if (trans == Trans::No) {
    if (uplo == UpLo::Upper) {
      // Forward over columns of A (upper, no trans => X left to right).
      for (int j = 0; j < n; ++j) {
        if (diag == Diag::NonUnit) scal(b.rows, 1.0 / a(j, j), b.col(j), 1);
        for (int p = j + 1; p < n; ++p) {
          double apj = a(j, p);
          if (apj != 0.0) axpy_col(p, j, -apj);
        }
      }
    } else {
      for (int j = n - 1; j >= 0; --j) {
        if (diag == Diag::NonUnit) scal(b.rows, 1.0 / a(j, j), b.col(j), 1);
        for (int p = 0; p < j; ++p) {
          double apj = a(j, p);
          if (apj != 0.0) axpy_col(p, j, -apj);
        }
      }
    }
  } else {
    if (uplo == UpLo::Lower) {
      // X A^T = B with A lower => A^T upper; same pattern as Upper/No.
      for (int j = 0; j < n; ++j) {
        if (diag == Diag::NonUnit) scal(b.rows, 1.0 / a(j, j), b.col(j), 1);
        for (int p = j + 1; p < n; ++p) {
          double apj = a(p, j);
          if (apj != 0.0) axpy_col(p, j, -apj);
        }
      }
    } else {
      for (int j = n - 1; j >= 0; --j) {
        if (diag == Diag::NonUnit) scal(b.rows, 1.0 / a(j, j), b.col(j), 1);
        for (int p = 0; p < j; ++p) {
          double apj = a(p, j);
          if (apj != 0.0) axpy_col(p, j, -apj);
        }
      }
    }
  }
}

// Packed engine: both operands are copied into contiguous aligned
// micro-panel buffers (transposes fold into the packing, alpha folds
// into B), then an kMr x kNr register-tiled microkernel sweeps them.
// The buffers come from the per-worker scratch arena, so steady-state
// Schur updates allocate nothing.  B is packed once per (jc, pc) block and
// serves every row batch; each piece of a batch packs its own A rows, and
// per C element the result does not depend on how the rows were split.
void packed_rows(Trans transa, Trans transb, double alpha, ConstMatrixView a,
                 ConstMatrixView b, MatrixView c, int n, int k,
                 const RowSpan* runs, int nruns) {
  WorkerScratch& scratch = worker_scratch();
  double* apack = scratch.pack_a(static_cast<std::size_t>(kMc) * kKc);
  double* bpack = scratch.pack_b(static_cast<std::size_t>(kKc) * kNc);
  // Per-(panel, k-index) nonzero mask; kKc * kNc/kNr bytes fit in doubles.
  unsigned char* bmask = reinterpret_cast<unsigned char*>(
      scratch.temp(static_cast<std::size_t>(kKc) * (kNc / kNr) / 8 + 8));
  RowSpan piece[kMc];
  for (int jc = 0; jc < n; jc += kNc) {
    const int nb = std::min(kNc, n - jc);
    for (int pc = 0; pc < k; pc += kKc) {
      const int kb = std::min(kKc, k - pc);
      const bool masked = pack_b(transb, alpha, b, pc, jc, kb, nb, bpack, bmask);
      RunCursor at;
      while (at.run < nruns) {
        const int np = next_batch(runs, nruns, at, true, piece);
        double* dst = apack;
        for (int q = 0; q < np; ++q) {
          pack_a(transa, a, piece[q].a_row, pc, piece[q].rows, kb, dst);
          dst += static_cast<std::size_t>((piece[q].rows + kMr - 1) / kMr) *
                 kMr * kb;
        }
        for (int jr = 0; jr < nb; jr += kNr) {
          const double* bpanel = bpack + static_cast<std::size_t>(jr) * kb;
          const unsigned char* pmask =
              masked ? bmask + (jr / kNr) * kb : nullptr;
          const int nr = std::min(kNr, nb - jr);
          const double* ap = apack;
          for (int q = 0; q < np; ++q) {
            const int mb = piece[q].rows;
            for (int ir = 0; ir < mb; ir += kMr) {
              micro_kernel(kb, ap, bpanel, pmask,
                           c.data + static_cast<std::size_t>(jc + jr) * c.ld +
                               piece[q].c_row + ir,
                           c.ld, std::min(kMr, mb - ir), nr);
              ap += static_cast<std::size_t>(kMr) * kb;
            }
          }
        }
      }
    }
  }
}

}  // namespace

bool gemm_pack_worthwhile(int m, int n, int k) {
  return static_cast<double>(m) * n * k >= tunables::kPackThreshold;
}

bool gemm_b_dense_enough(Trans transb, ConstMatrixView b, int k, int n) {
  const long budget = static_cast<long>(tunables::kPackMaxZeroFrac *
                                        (static_cast<double>(k) * n));
  long zeros = 0;
  if (transb == Trans::No) {
    for (int j = 0; j < n; ++j) {
      const double* bj = b.data + static_cast<std::size_t>(j) * b.ld;
      for (int p = 0; p < k; ++p) zeros += (bj[p] == 0.0);
      if (zeros > budget) return false;
    }
  } else {
    for (int p = 0; p < k; ++p) {
      const double* bp = b.data + static_cast<std::size_t>(p) * b.ld;
      for (int j = 0; j < n; ++j) zeros += (bp[j] == 0.0);
      if (zeros > budget) return false;
    }
  }
  return true;
}

void gemm(Trans transa, Trans transb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c, GemmEngine engine) {
  const int m = (transa == Trans::No) ? a.rows : a.cols;
  const int k = (transa == Trans::No) ? a.cols : a.rows;
  const int n = (transb == Trans::No) ? b.cols : b.rows;
  assert(((transb == Trans::No) ? b.rows : b.cols) == k);
  assert(c.rows == m && c.cols == n);
  scale_c(beta, c);
  if (alpha == 0.0 || k == 0) return;
  if (engine == GemmEngine::kAuto) {
    // Short-circuit order matters for cost only (the scan is O(k*n)), not
    // for the decision; hint-passing callers replay these exact predicates.
    engine = (gemm_pack_worthwhile(m, n, k) &&
              gemm_b_dense_enough(transb, b, k, n))
                 ? GemmEngine::kPacked
                 : GemmEngine::kDirect;
  }
  if (engine == GemmEngine::kPacked) {
    const RowSpan all{0, 0, m};
    packed_rows(transa, transb, alpha, a, b, c, n, k, &all, 1);
  } else {
    gemm_direct(transa, transb, alpha, a, b, c, m, n, k);
  }
}

void gemm(Trans transa, Trans transb, double alpha, ConstMatrixView a,
          ConstMatrixView b, double beta, MatrixView c) {
  gemm(transa, transb, alpha, a, b, beta, c, GemmEngine::kAuto);
}

void gemm_rows(double alpha, ConstMatrixView a, ConstMatrixView b,
               MatrixView c, const RowSpan* runs, int nruns,
               GemmEngine engine) {
  assert(a.cols == b.rows && b.cols == c.cols);
  assert(engine != GemmEngine::kAuto);
  if (alpha == 0.0 || b.rows == 0 || nruns == 0) return;
  if (engine == GemmEngine::kPacked) {
    packed_rows(Trans::No, Trans::No, alpha, a, b, c, b.cols, b.rows, runs,
                nruns);
  } else {
    direct_rows(alpha, a, b, c, runs, nruns);
  }
}

void trsm(Side side, UpLo uplo, Trans trans, Diag diag, double alpha,
          ConstMatrixView a, MatrixView b) {
  assert(a.rows == a.cols);
  const int n = a.rows;
  if (side == Side::Left) {
    assert(b.rows == n);
    if (alpha != 1.0) scale_c(alpha, b);
    // Column-by-column triangular solves; each column of B is independent.
    for (int j = 0; j < b.cols; ++j) {
      trsv(uplo, trans, diag, a, b.col(j), 1);
    }
    (void)n;
  } else {
    assert(b.cols == n);
    if (alpha != 1.0) scale_c(alpha, b);
    // Blocked right-side solve: the kTrsmNb-wide diagonal block is solved
    // with the unblocked column kernel, then its effect on every remaining
    // column is folded in with ONE gemm -- replacing the O(n^2) chain of
    // per-column axpy calls the unblocked kernel would spend on the
    // off-diagonal part.
    const bool op_upper = (uplo == UpLo::Upper) == (trans == Trans::No);
    if (op_upper) {
      // X op(A) = B with op(A) upper: column blocks left to right, each
      // solved block updates the trailing columns.
      for (int j0 = 0; j0 < n; j0 += kTrsmNb) {
        const int w = std::min(kTrsmNb, n - j0);
        trsm_right_unblocked(uplo, trans, diag, a.block(j0, j0, w, w),
                             b.block(0, j0, b.rows, w));
        const int rest = n - (j0 + w);
        if (rest > 0) {
          MatrixView btrail = b.block(0, j0 + w, b.rows, rest);
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, -1.0, b.block(0, j0, b.rows, w),
                 a.block(j0, j0 + w, w, rest), 1.0, btrail);
          } else {
            gemm(Trans::No, Trans::Yes, -1.0, b.block(0, j0, b.rows, w),
                 a.block(j0 + w, j0, rest, w), 1.0, btrail);
          }
        }
      }
    } else {
      // op(A) lower: column blocks right to left, each solved block
      // updates the leading columns.
      for (int j0 = ((n - 1) / kTrsmNb) * kTrsmNb; j0 >= 0; j0 -= kTrsmNb) {
        const int w = std::min(kTrsmNb, n - j0);
        trsm_right_unblocked(uplo, trans, diag, a.block(j0, j0, w, w),
                             b.block(0, j0, b.rows, w));
        if (j0 > 0) {
          MatrixView blead = b.block(0, 0, b.rows, j0);
          if (trans == Trans::No) {
            gemm(Trans::No, Trans::No, -1.0, b.block(0, j0, b.rows, w),
                 a.block(j0, 0, w, j0), 1.0, blead);
          } else {
            gemm(Trans::No, Trans::Yes, -1.0, b.block(0, j0, b.rows, w),
                 a.block(0, j0, j0, w), 1.0, blead);
          }
        }
      }
    }
  }
}

double gemm_flops(int m, int n, int k) { return 2.0 * m * n * k; }

double trsm_flops(Side side, int m, int n) {
  return (side == Side::Left) ? static_cast<double>(m) * m * n
                              : static_cast<double>(n) * n * m;
}

double getrf_flops(int m, int n) {
  // Sum over columns j of (m-j-1) divisions + 2*(m-j-1)*(n-j-1) update flops.
  double f = 0.0;
  int p = std::min(m, n);
  for (int j = 0; j < p; ++j) {
    f += (m - j - 1) + 2.0 * (m - j - 1) * (n - j - 1);
  }
  return f;
}

}  // namespace plu::blas
