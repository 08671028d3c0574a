#include "symbolic/blocks.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>

#include "graph/eforest.h"
#include "symbolic/static_symbolic.h"

namespace plu::symbolic {

Pattern block_pattern(const Pattern& abar, const SupernodePartition& part) {
  const int nb = part.count();
  assert(part.num_cols() == abar.cols);
  Pattern bp(nb, nb);
  std::vector<int> mark(nb, -1);
  std::vector<int> buf;
  for (int s = 0; s < nb; ++s) {
    buf.clear();
    for (int j = part.first(s); j < part.end(s); ++j) {
      for (const int* it = abar.col_begin(j); it != abar.col_end(j); ++it) {
        int bi = part.supernode_of(*it);
        if (mark[bi] != s) {
          mark[bi] = s;
          buf.push_back(bi);
        }
      }
    }
    std::sort(buf.begin(), buf.end());
    bp.idx.insert(bp.idx.end(), buf.begin(), buf.end());
    bp.ptr[s + 1] = static_cast<int>(bp.idx.size());
  }
  return bp;
}

bool block_closure_holds(const Pattern& bpattern) {
  const int nb = bpattern.cols;
  Pattern rows = bpattern.transpose();
  for (int k = 0; k < nb; ++k) {
    // L blocks of column k and U blocks of row k.
    std::vector<int> lblocks;
    for (const int* it = bpattern.col_begin(k); it != bpattern.col_end(k); ++it) {
      if (*it > k) lblocks.push_back(*it);
    }
    if (lblocks.empty()) continue;
    for (const int* jt = rows.col_begin(k); jt != rows.col_end(k); ++jt) {
      int j = *jt;
      if (j <= k) continue;
      for (int i : lblocks) {
        if (!bpattern.contains(i, j)) return false;
      }
    }
  }
  return true;
}

std::vector<int> BlockStructure::l_blocks(int k) const {
  std::vector<int> out;
  for (const int* it = bpattern.col_begin(k); it != bpattern.col_end(k); ++it) {
    if (*it > k) out.push_back(*it);
  }
  return out;
}

std::vector<int> BlockStructure::u_blocks(int k) const {
  std::vector<int> out;
  for (const int* it = bpattern_rows.col_begin(k); it != bpattern_rows.col_end(k);
       ++it) {
    if (*it > k) out.push_back(*it);
  }
  return out;
}

Pattern pairwise_closure(const Pattern& bp, long* added) {
  assert(bp.rows == bp.cols);
  const int nb = bp.cols;
  const int W = (nb + 63) / 64;
  std::vector<std::uint64_t> cols(static_cast<std::size_t>(nb) * W, 0);
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(nb) * W, 0);
  auto colw = [&](int j) { return cols.data() + static_cast<std::size_t>(j) * W; };
  auto roww = [&](int i) { return rows.data() + static_cast<std::size_t>(i) * W; };
  for (int j = 0; j < nb; ++j) {
    for (const int* it = bp.col_begin(j); it != bp.col_end(j); ++it) {
      colw(j)[*it >> 6] |= 1ull << (*it & 63);
      roww(*it)[j >> 6] |= 1ull << (j & 63);
    }
  }
  long new_blocks = 0;
  for (int k = 0; k < nb; ++k) {
    // Mask selecting indices strictly greater than k within word w0.
    const int w0 = k >> 6;
    const std::uint64_t gt_mask =
        (k & 63) == 63 ? 0ull : (~0ull << ((k & 63) + 1));
    const std::uint64_t* ck = colw(k);
    // Walk the U part of row k (columns j > k) and OR column k's L part in.
    const std::uint64_t* rk = roww(k);
    for (int w = w0; w < W; ++w) {
      std::uint64_t word = rk[w];
      if (w == w0) word &= gt_mask;
      while (word) {
        int j = (w << 6) + std::countr_zero(word);
        word &= word - 1;
        std::uint64_t* cj = colw(j);
        for (int v = w0; v < W; ++v) {
          std::uint64_t lpart = ck[v];
          if (v == w0) lpart &= gt_mask;
          std::uint64_t diff = lpart & ~cj[v];
          if (diff) {
            cj[v] |= diff;
            new_blocks += std::popcount(diff);
            while (diff) {
              int i = (v << 6) + std::countr_zero(diff);
              diff &= diff - 1;
              roww(i)[j >> 6] |= 1ull << (j & 63);
            }
          }
        }
      }
    }
  }
  if (added) *added = new_blocks;
  Pattern out(nb, nb);
  // Exact size: the closed pattern is kept by every cached Analysis.
  out.idx.reserve(bp.nnz() + new_blocks);
  for (int j = 0; j < nb; ++j) {
    const std::uint64_t* cj = colw(j);
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

BlockStructure build_block_structure(const Pattern& abar,
                                     const SupernodePartition& part,
                                     bool apply_closure) {
  BlockStructure bs;
  bs.part = part;
  Pattern raw = block_pattern(abar, part);
  if (apply_closure) {
    bs.bpattern = pairwise_closure(raw, &bs.extra_blocks_from_closure);
  } else {
    bs.extra_blocks_from_closure = 0;
    bs.bpattern = std::move(raw);
  }
  bs.bpattern_rows = bs.bpattern.transpose();
  bs.beforest = graph::lu_eforest(bs.bpattern);
  return bs;
}

}  // namespace plu::symbolic
