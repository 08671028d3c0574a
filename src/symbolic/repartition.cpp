#include "symbolic/repartition.h"

#include <stdexcept>

#include "graph/eforest.h"

namespace plu::symbolic {

namespace {

// Fills plan.columns[k] from Abar's entries in block column k.  Because the
// row partition is the column partition, part.supernode_of(row) IS the row
// block, so one sweep over the supernode's Abar columns finds every
// structural L row.  `mark` (one slot per scalar row, never equal to k on entry) flags the
// structural rows of the panel.
void build_column_plan(const Pattern& abar, const BlockStructure& bs, int k,
                       ColumnPlan& cp, std::vector<int>& mark) {
  const SupernodePartition& part = bs.part;
  cp.l_list = bs.l_blocks(k);
  const int nb = static_cast<int>(cp.l_list.size());
  cp.l_offset.assign(nb + 1, 0);
  for (int t = 0; t < nb; ++t) {
    cp.l_offset[t + 1] = cp.l_offset[t] + part.width(cp.l_list[t]);
  }
  cp.panel_rows = cp.l_offset[nb];

  for (int j = part.first(k); j < part.end(k); ++j) {
    for (const int* it = abar.col_begin(j); it != abar.col_end(j); ++it) {
      if (part.supernode_of(*it) > k) mark[*it] = k;  // an L-part row
    }
  }

  cp.row_runs.clear();
  cp.run_ptr.assign(nb + 1, 0);
  cp.structural_rows = 0;
  for (int t = 0; t < nb; ++t) {
    cp.run_ptr[t] = static_cast<int>(cp.row_runs.size());
    const int first = part.first(cp.l_list[t]);
    const int width = part.width(cp.l_list[t]);
    for (int r = 0; r < width; ++r) {
      if (mark[first + r] != k) continue;
      const int src = cp.l_offset[t] + r;
      if (!cp.row_runs.empty() && cp.row_runs.back().block == t &&
          cp.row_runs.back().src + cp.row_runs.back().rows == src) {
        ++cp.row_runs.back().rows;
      } else {
        cp.row_runs.push_back({src, 1, t});
      }
      ++cp.structural_rows;
    }
  }
  cp.run_ptr[nb] = static_cast<int>(cp.row_runs.size());
}

// Sequential summary reduction over the filled columns (identical whether
// the columns were built sequentially or by a team).
void reduce_summary(const BlockStructure& bs, BlockPlan& plan) {
  BlockPlanSummary& s = plan.summary;
  s = BlockPlanSummary{};
  s.built = true;
  for (int k = 0; k < bs.num_blocks(); ++k) {
    const ColumnPlan& cp = plan.columns[k];
    s.panel_blocks += static_cast<long>(cp.l_list.size());
    s.row_runs += static_cast<long>(cp.row_runs.size());
    s.rows_skipped += cp.panel_rows - cp.structural_rows;
  }
}

// Shared tail of both builders: the lock-freedom invariant is not a
// fallback path, so a structure that breaks it is a bug.
void finish_plan(const BlockStructure& bs, BlockPlan& plan) {
  reduce_summary(bs, plan);
  plan.built = true;
  if (row_writer_chain_violations(bs, plan) != 0) {
    throw std::logic_error(
        "build_block_plan: writers of a row do not form an eforest chain");
  }
}

}  // namespace

long row_writer_chain_violations(const BlockStructure& bs,
                                 const BlockPlan& plan) {
  const SupernodePartition& part = bs.part;
  const graph::AncestorIndex idx(bs.beforest);
  // last[r]: the latest writer of row r so far.  Block columns ascend and
  // every ancestor has a larger label, so along a chain each new writer
  // must be an ancestor-or-self of the previous one.
  std::vector<int> last(part.num_cols(), graph::kNone);
  long violations = 0;
  for (int k = 0; k < bs.num_blocks(); ++k) {
    const ColumnPlan& cp = plan.columns[k];
    for (const RowRun& run : cp.row_runs) {
      const int g0 = part.first(cp.l_list[run.block]) +
                     (run.src - cp.l_offset[run.block]);
      for (int r = g0; r < g0 + run.rows; ++r) {
        if (last[r] != graph::kNone && !idx.ancestor_or_self(k, last[r])) {
          ++violations;
        }
        last[r] = k;
      }
    }
  }
  for (int r = 0; r < part.num_cols(); ++r) {
    if (last[r] != graph::kNone &&
        !idx.ancestor_or_self(part.supernode_of(r), last[r])) {
      ++violations;
    }
  }
  return violations;
}

BlockPlan build_block_plan(const Pattern& abar, const BlockStructure& bs) {
  BlockPlan plan;
  plan.columns.resize(bs.num_blocks());
  std::vector<int> mark(abar.rows, -1);
  for (int k = 0; k < bs.num_blocks(); ++k) {
    build_column_plan(abar, bs, k, plan.columns[k], mark);
  }
  finish_plan(bs, plan);
  return plan;
}

BlockPlan build_block_plan(const Pattern& abar, const BlockStructure& bs,
                           rt::Team& team) {
  BlockPlan plan;
  const int n = bs.num_blocks();
  plan.columns.resize(n);
  // Columns are write-disjoint and each reads only its own Abar range, so
  // the fan-out is trivially bit-identical to the sequential build.
  team.parallel_for(abar.nnz(), n, [&](int kb, int ke, int) {
    std::vector<int> mark(abar.rows, -1);
    for (int k = kb; k < ke; ++k) {
      build_column_plan(abar, bs, k, plan.columns[k], mark);
    }
  });
  finish_plan(bs, plan);
  return plan;
}

bool transpose_consistent(const BlockStructure& bs) {
  return bs.bpattern_rows == bs.bpattern.transpose();
}

}  // namespace plu::symbolic
