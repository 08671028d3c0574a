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

Pattern block_pattern(const Pattern& abar, const SupernodePartition& part,
                      rt::Team& team) {
  const int nb = part.count();
  assert(part.num_cols() == abar.cols);
  // Each block column's row-block list is computed independently with a
  // lane-local mark array; the ordered concatenation stays sequential.
  std::vector<std::vector<int>> per_s(nb);
  team.parallel_for(abar.nnz(), nb, [&](int sb, int se, int) {
    std::vector<int> mark(nb, -1);
    for (int s = sb; s < se; ++s) {
      std::vector<int>& buf = per_s[s];
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
    }
  });
  Pattern bp(nb, nb);
  long total = 0;
  for (int s = 0; s < nb; ++s) total += static_cast<long>(per_s[s].size());
  bp.idx.reserve(total);
  for (int s = 0; s < nb; ++s) {
    bp.idx.insert(bp.idx.end(), per_s[s].begin(), per_s[s].end());
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

Pattern pairwise_closure(const Pattern& bp, rt::Team& team, long* added) {
  assert(bp.rows == bp.cols);
  const int nb = bp.cols;
  const int W = (nb + 63) / 64;
  std::vector<std::uint64_t> cols(static_cast<std::size_t>(nb) * W, 0);
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(nb) * W, 0);
  auto colw = [&](int j) { return cols.data() + static_cast<std::size_t>(j) * W; };
  auto roww = [&](int i) { return rows.data() + static_cast<std::size_t>(i) * W; };
  // Init mirrors the symbolic engine: column words lane-owned, row words
  // shared across columns (atomic ORs).
  team.parallel_for(bp.nnz(), nb, [&](int jb, int je, int) {
    for (int j = jb; j < je; ++j) {
      for (const int* it = bp.col_begin(j); it != bp.col_end(j); ++it) {
        colw(j)[*it >> 6] |= 1ull << (*it & 63);
        rt::atomic_or_u64(roww(*it) + (j >> 6), 1ull << (j & 63));
      }
    }
  });
  // Commutative per-lane tallies of added blocks, summed at the end.
  std::vector<long> lane_added(team.lanes(), 0);
  std::vector<int> ucols;
  for (int k = 0; k < nb; ++k) {
    const int w0 = k >> 6;
    const std::uint64_t gt_mask =
        (k & 63) == 63 ? 0ull : (~0ull << ((k & 63) + 1));
    // U entries of row k, extracted up front so the step can fan out over
    // them.  Step k writes only rows/columns > k, so row k and column k are
    // stable for the whole step.
    ucols.clear();
    const std::uint64_t* rk = roww(k);
    for (int w = w0; w < W; ++w) {
      std::uint64_t word = rk[w];
      if (w == w0) word &= gt_mask;
      while (word) {
        ucols.push_back((w << 6) + std::countr_zero(word));
        word &= word - 1;
      }
    }
    if (ucols.empty()) continue;
    const std::uint64_t* ck = colw(k);
    const long step_work =
        static_cast<long>(ucols.size()) * (W - w0);
    team.parallel_for(step_work, static_cast<int>(ucols.size()),
                      [&](int ub, int ue, int lane) {
      long my_added = 0;
      for (int u = ub; u < ue; ++u) {
        const int j = ucols[u];
        std::uint64_t* cj = colw(j);  // owned: j appears once in ucols
        for (int v = w0; v < W; ++v) {
          std::uint64_t lpart = ck[v];
          if (v == w0) lpart &= gt_mask;
          std::uint64_t diff = lpart & ~cj[v];
          if (diff) {
            cj[v] |= diff;
            my_added += std::popcount(diff);
            while (diff) {
              int i = (v << 6) + std::countr_zero(diff);
              diff &= diff - 1;
              rt::atomic_or_u64(roww(i) + (j >> 6), 1ull << (j & 63));
            }
          }
        }
      }
      lane_added[lane] += my_added;
    });
  }
  if (added) {
    long total = 0;
    for (long a : lane_added) total += a;
    *added = total;
  }
  // Extraction: parallel per-column counts, sequential prefix, parallel fill.
  Pattern out(nb, nb);
  std::vector<int> counts(nb);
  team.parallel_for(static_cast<long>(nb) * W, nb, [&](int jb, int je, int) {
    for (int j = jb; j < je; ++j) {
      const std::uint64_t* cj = colw(j);
      int c = 0;
      for (int w = 0; w < W; ++w) c += std::popcount(cj[w]);
      counts[j] = c;
    }
  });
  long total = 0;
  for (int j = 0; j < nb; ++j) {
    total += counts[j];
    out.ptr[j + 1] = static_cast<int>(total);
  }
  out.idx.resize(total);
  team.parallel_for(total, nb, [&](int jb, int je, int) {
    for (int j = jb; j < je; ++j) {
      int* dst = out.idx.data() + out.ptr[j];
      const std::uint64_t* cj = colw(j);
      for (int w = 0; w < W; ++w) {
        std::uint64_t word = cj[w];
        while (word) {
          *dst++ = (w << 6) + std::countr_zero(word);
          word &= word - 1;
        }
      }
    }
  });
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

BlockStructure build_block_structure(const Pattern& abar,
                                     const SupernodePartition& part,
                                     bool apply_closure, rt::Team& team) {
  BlockStructure bs;
  bs.part = part;
  Pattern raw = block_pattern(abar, part, team);
  if (apply_closure) {
    bs.bpattern = pairwise_closure(raw, team, &bs.extra_blocks_from_closure);
  } else {
    bs.extra_blocks_from_closure = 0;
    bs.bpattern = std::move(raw);
  }
  bs.bpattern_rows = bs.bpattern.transpose();
  bs.beforest = graph::lu_eforest(bs.bpattern);
  return bs;
}

}  // namespace plu::symbolic
