#include "symbolic/static_symbolic.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <stdexcept>

#include "graph/transversal.h"

namespace plu::symbolic {

namespace {

void check_input(const Pattern& a) {
  if (a.rows != a.cols) {
    throw std::invalid_argument("static symbolic factorization: matrix not square");
  }
  if (!graph::has_structural_diagonal(a)) {
    throw std::invalid_argument(
        "static symbolic factorization: zero-free diagonal required "
        "(apply a maximum transversal first)");
  }
}

SymbolicResult finalize(Pattern abar) {
  SymbolicResult res;
  res.nnz_lbar = 0;
  res.nnz_ubar = 0;
  for (int j = 0; j < abar.cols; ++j) {
    for (const int* it = abar.col_begin(j); it != abar.col_end(j); ++it) {
      if (*it >= j) ++res.nnz_lbar;
      if (*it <= j) ++res.nnz_ubar;
    }
  }
  res.abar = std::move(abar);
  return res;
}

// ---------------------------------------------------------------------------
// Bitset engine
// ---------------------------------------------------------------------------

class BitRows {
 public:
  BitRows(int n) : n_(n), words_((n + 63) / 64), bits_(static_cast<std::size_t>(n) * words_, 0) {}

  void set(int i, int j) { row(i)[j >> 6] |= (1ull << (j & 63)); }
  bool test(int i, int j) const { return (row(i)[j >> 6] >> (j & 63)) & 1u; }
  std::uint64_t* row(int i) { return bits_.data() + static_cast<std::size_t>(i) * words_; }
  const std::uint64_t* row(int i) const {
    return bits_.data() + static_cast<std::size_t>(i) * words_;
  }
  int words() const { return words_; }
  int n() const { return n_; }

 private:
  int n_;
  int words_;
  std::vector<std::uint64_t> bits_;
};

SymbolicResult run_bitset(const Pattern& a) {
  const int n = a.cols;
  BitRows rows(n);   // rows[i] = column structure of row i
  BitRows cols(n);   // cols[j] = row structure of column j (kept in sync)
  for (int j = 0; j < n; ++j) {
    for (const int* it = a.col_begin(j); it != a.col_end(j); ++it) {
      rows.set(*it, j);
      cols.set(j, *it);
    }
  }
  const int W = rows.words();
  std::vector<std::uint64_t> u(W);
  std::vector<int> candidates;
  for (int k = 0; k < n; ++k) {
    // R_k: rows i >= k with a (current) entry in column k.
    candidates.clear();
    const std::uint64_t* ck = cols.row(k);
    for (int w = k >> 6; w < W; ++w) {
      std::uint64_t word = ck[w];
      if (w == (k >> 6)) word &= ~0ull << (k & 63);
      while (word) {
        int b = std::countr_zero(word);
        word &= word - 1;
        candidates.push_back((w << 6) + b);
      }
    }
    if (candidates.size() <= 1) continue;  // no union needed
    // u = union of candidate row structures restricted to columns >= k.
    std::fill(u.begin(), u.end(), 0);
    const int w0 = k >> 6;
    for (int i : candidates) {
      const std::uint64_t* ri = rows.row(i);
      for (int w = w0; w < W; ++w) u[w] |= ri[w];
    }
    u[w0] &= ~0ull << (k & 63);
    // Assign u to every candidate row; record new entries in the column
    // bitsets so later steps see the fill.
    for (int i : candidates) {
      std::uint64_t* ri = rows.row(i);
      for (int w = w0; w < W; ++w) {
        std::uint64_t nw = (w == w0) ? ((ri[w] & ~(~0ull << (k & 63))) | u[w]) : u[w];
        std::uint64_t added = nw & ~ri[w];
        ri[w] = nw;
        while (added) {
          int b = std::countr_zero(added);
          added &= added - 1;
          cols.set((w << 6) + b, i);
        }
      }
    }
  }
  // Extract the CSC pattern from the column bitsets.
  Pattern abar(n, n);
  long total = 0;
  for (int j = 0; j < n; ++j) {
    const std::uint64_t* cj = cols.row(j);
    for (int w = 0; w < W; ++w) total += std::popcount(cj[w]);
  }
  abar.idx.reserve(total);
  for (int j = 0; j < n; ++j) {
    const std::uint64_t* cj = cols.row(j);
    for (int w = 0; w < W; ++w) {
      std::uint64_t word = cj[w];
      while (word) {
        int b = std::countr_zero(word);
        word &= word - 1;
        abar.idx.push_back((w << 6) + b);
      }
    }
    abar.ptr[j + 1] = static_cast<int>(abar.idx.size());
  }
  return finalize(std::move(abar));
}

// ---------------------------------------------------------------------------
// Row-merge engine
// ---------------------------------------------------------------------------

SymbolicResult run_rowmerge(const Pattern& a) {
  const int n = a.cols;
  // rows[i]: sorted column indices of row i.
  Pattern by_rows = a.transpose();
  std::vector<std::vector<int>> rows(n);
  for (int i = 0; i < n; ++i) {
    rows[i].assign(by_rows.col_begin(i), by_rows.col_end(i));
  }
  // col_rows[j]: rows known to have an entry in column j (append-only; rows
  // never lose entries in this scheme).
  std::vector<std::vector<int>> col_rows(n);
  for (int j = 0; j < n; ++j) {
    for (const int* it = a.col_begin(j); it != a.col_end(j); ++it) {
      col_rows[j].push_back(*it);
    }
  }
  std::vector<int> candidates;
  std::vector<int> u;
  std::vector<int> merged;
  for (int k = 0; k < n; ++k) {
    candidates.clear();
    for (int i : col_rows[k]) {
      if (i >= k) candidates.push_back(i);
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    if (candidates.size() <= 1) continue;
    // u = union of the candidate rows' structures restricted to >= k.
    u.clear();
    for (int i : candidates) {
      const std::vector<int>& r = rows[i];
      auto from = std::lower_bound(r.begin(), r.end(), k);
      merged.clear();
      std::set_union(u.begin(), u.end(), from, r.end(), std::back_inserter(merged));
      u.swap(merged);
    }
    for (int i : candidates) {
      std::vector<int>& r = rows[i];
      auto from = std::lower_bound(r.begin(), r.end(), k);
      // Record fill in the column lists before overwriting the tail.
      std::size_t old_tail = static_cast<std::size_t>(r.end() - from);
      if (old_tail != u.size()) {
        // Columns in u but not in the old tail gain row i.
        std::vector<int> added;
        std::set_difference(u.begin(), u.end(), from, r.end(),
                            std::back_inserter(added));
        for (int j : added) col_rows[j].push_back(i);
      }
      r.erase(from, r.end());
      r.insert(r.end(), u.begin(), u.end());
    }
  }
  // Assemble CSR then transpose to CSC.
  Pattern csr(n, n);
  long total = 0;
  for (int i = 0; i < n; ++i) total += static_cast<long>(rows[i].size());
  csr.idx.reserve(total);
  for (int i = 0; i < n; ++i) {
    csr.idx.insert(csr.idx.end(), rows[i].begin(), rows[i].end());
    csr.ptr[i + 1] = static_cast<int>(csr.idx.size());
  }
  return finalize(csr.transpose());
}

}  // namespace

SymbolicResult static_symbolic_factorization(const Pattern& a, Engine engine) {
  check_input(a);
  return engine == Engine::kBitset ? run_bitset(a) : run_rowmerge(a);
}

bool postorder_commutes_with_symbolic(const Pattern& a, const Pattern& abar,
                                      const Permutation& perm, Engine engine) {
  Pattern a_perm = a.permuted(perm, perm);
  Pattern abar_perm = abar.permuted(perm, perm);
  SymbolicResult sym = static_symbolic_factorization(a_perm, engine);
  return sym.abar == abar_perm;
}

std::string to_string(Engine e) {
  switch (e) {
    case Engine::kBitset: return "bitset";
    case Engine::kRowMerge: return "rowmerge";
  }
  return "unknown";
}

Pattern no_pivot_fill(const Pattern& a) {
  // No zero-free-diagonal requirement: under a fixed pivot order the
  // diagonal entry of step k may only appear as fill from earlier steps
  // (typical when evaluating the pivot sequence an actual factorization
  // chose).  The sweep below is well-defined either way.
  if (a.rows != a.cols) {
    throw std::invalid_argument("no_pivot_fill: matrix not square");
  }
  const int n = a.cols;
  BitRows rows(n);
  BitRows cols(n);
  for (int j = 0; j < n; ++j) {
    for (const int* it = a.col_begin(j); it != a.col_end(j); ++it) {
      rows.set(*it, j);
      cols.set(j, *it);
    }
  }
  const int W = rows.words();
  for (int k = 0; k < n; ++k) {
    // Rows below k with an entry in column k receive row k's tail.
    const std::uint64_t* rk = rows.row(k);
    const std::uint64_t* ck = cols.row(k);
    const int w0 = k >> 6;
    for (int w = w0; w < W; ++w) {
      std::uint64_t word = ck[w];
      if (w == w0) word &= (k & 63) == 63 ? 0ull : (~0ull << ((k & 63) + 1));
      while (word) {
        int i = (w << 6) + std::countr_zero(word);
        word &= word - 1;
        std::uint64_t* ri = rows.row(i);
        for (int v = w0; v < W; ++v) {
          std::uint64_t tail = rk[v];
          if (v == w0) tail &= ~0ull << (k & 63);
          std::uint64_t added = tail & ~ri[v];
          ri[v] |= tail;
          while (added) {
            int j = (v << 6) + std::countr_zero(added);
            added &= added - 1;
            cols.set(j, i);
          }
        }
      }
    }
  }
  Pattern out(n, n);
  for (int j = 0; j < n; ++j) {
    const std::uint64_t* cj = cols.row(j);
    for (int w = 0; w < W; ++w) {
      std::uint64_t word = cj[w];
      while (word) {
        out.idx.push_back((w << 6) + std::countr_zero(word));
        word &= word - 1;
      }
    }
    out.ptr[j + 1] = static_cast<int>(out.idx.size());
  }
  return out;
}

Pattern ata_cholesky_bound(const Pattern& a) {
  // Cholesky fill of the A^T A pattern = no-pivot fill of the symmetric
  // pattern (which subsumes the Cholesky lower factor and its transpose).
  Pattern ata = Pattern::ata(a);
  return no_pivot_fill(ata);
}

}  // namespace plu::symbolic
