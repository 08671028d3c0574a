// The block plan (DESIGN.md section 16): per-panel structure the numeric
// drivers' hot loops read, built once between symbolic analysis and
// numeric factorization.  For every block column it records
//
//   * cached l_blocks lists and panel-local row offsets, so the drivers
//     stop re-deriving them from the Pattern;
//   * the structural row runs of every panel -- the only rows an update
//     writes -- checked so that each row's writers form an eforest chain
//     (row_writer_chain_violations), which is what lets every update run
//     without a lock;
//   * aggregate row-run counts for the report.
//
// Structural rows are exact: the static structure bounds the fill under
// every pivot sequence, so a row outside every run stays zero.  Which gemm
// engine a run takes is decided at runtime from the same predicates gemm's
// auto router uses (blas/level3.h), so the factors are bitwise those of a
// whole-block gemm (DESIGN.md section 16).
#pragma once

#include <vector>

#include "matrix/csc.h"
#include "runtime/parallel_for.h"
#include "symbolic/blocks.h"

namespace plu::symbolic {

/// One run of structural L rows of a panel: rows [src, src + rows) of the
/// L part (panel-local, diagonal excluded, like ColumnPlan::l_offset), all
/// inside the L block l_list[block].
struct RowRun {
  int src = 0;
  int rows = 0;
  int block = 0;
};

/// Per-block-column slice of the plan.
struct ColumnPlan {
  /// Row blocks i > k of block column k (== BlockStructure::l_blocks(k),
  /// cached so the numeric hot loops stop allocating).
  std::vector<int> l_list;
  /// Panel-local row offset of each L block (l_list.size() + 1 entries;
  /// offsets are relative to the first L row, i.e. diagonal excluded;
  /// back() == panel_rows).
  std::vector<int> l_offset;
  /// Total L rows below the diagonal block.
  int panel_rows = 0;
  /// The structural L rows: a row is structural when some column of the
  /// supernode holds an Abar entry in it.  Every other L row of the panel
  /// stays exactly zero under any pivoting (the static structure bounds
  /// all fill), so Update(k, j) writes only these rows of block column j.
  /// Maximal runs, ascending, split at L-block boundaries.
  std::vector<RowRun> row_runs;
  /// The runs of L block t are row_runs[run_ptr[t], run_ptr[t + 1])
  /// (l_list.size() + 1 entries).
  std::vector<int> run_ptr;
  /// Rows covered by row_runs.
  int structural_rows = 0;
};

/// Whole-plan aggregates (surfaced as the report's "row runs:" line).
struct BlockPlanSummary {
  bool built = false;
  long panel_blocks = 0;  // total L blocks over all block columns
  long row_runs = 0;      // structural row runs over all panels
  long rows_skipped = 0;  // L panel rows outside every run (never written)
};

/// The block plan for one analysis.
struct BlockPlan {
  bool built = false;
  BlockPlanSummary summary;
  std::vector<ColumnPlan> columns;  // one per block column
};

/// Runtime routing counters the numeric drivers fill on every run
/// (Factorization::blocking_stats(), the report's "blocking:" line).
struct BlockingStats {
  long tile_runs = 0;      // row runs dispatched, after fusion (1 per 2-D UB)
  long gemms_fused = 0;    // row runs merged into an adjacent one
  long routed_packed = 0;  // dispatched runs on the packed engine
  long routed_direct = 0;  // dispatched runs on the direct engine
  long scans_elided = 0;   // redundant O(k*n) density scans skipped
};

/// Builds the plan from the filled pattern and the block structure
/// (row partition == column partition, so Abar row indices map to row
/// blocks via part.supernode_of).  Also checks the invariant that lets
/// row-exact updates run without locks (check_row_writer_chains) and
/// throws std::logic_error when it fails.
BlockPlan build_block_plan(const Pattern& abar, const BlockStructure& bs);

/// Forwards to the overload above; kept for perfbench/traced.cpp.
inline BlockPlan build_block_plan(const Pattern& abar, const BlockStructure& bs,
                                  rt::Team&) {
  return build_block_plan(abar, bs);
}

/// Theorem 2 row by row: the writers of each scalar row r -- its own
/// supernode plus every block column whose row runs contain r -- must form
/// a chain in bs.beforest.  The eforest task graph orders Update(k, j)
/// along ancestor chains, so this makes every pair of tasks writing one
/// row of one block column ordered.  O(rows in all runs).  Returns the
/// number of violating rows (0 on every structure the analysis builds).
long row_writer_chain_violations(const BlockStructure& bs,
                                 const BlockPlan& plan);

/// True when bs.bpattern_rows is exactly the transpose of bs.bpattern --
/// the consistency invariant the numeric drivers rely on, revalidated by
/// tests after plan construction (the transpose is built once on
/// construction and never refreshed).
bool transpose_consistent(const BlockStructure& bs);

}  // namespace plu::symbolic
