// Symbolic analysis pipeline (steps 1-2 of the paper's scheme, plus the
// paper's contributions): ordering -> transversal -> static symbolic
// factorization -> LU eforest -> postorder -> supernode partition +
// amalgamation -> block structure -> task dependence graph + costs.
#pragma once

#include <cstdint>
#include <vector>

#include "core/block_storage.h"
#include "core/layout.h"
#include "graph/forest.h"
#include "matrix/csc.h"
#include "ordering/ordering.h"
#include "symbolic/blocks.h"
#include "symbolic/repartition.h"
#include "symbolic/static_symbolic.h"
#include "symbolic/supernodes.h"
#include "taskgraph/build.h"
#include "taskgraph/costs.h"

namespace plu {

/// Analysis knobs.  The analysis is one sequential path; this struct only
/// keeps the field perfbench/traced.cpp reads to construct its rt::Team
/// (runtime/parallel_for.h).  The library does not read it.
struct AnalysisOptions {
  long min_step_work = 0;
};

/// Wall-clock seconds per analysis phase, filled by analyze_pattern().
/// The sum of the phases can be slightly under `total` (permutation
/// composition and bookkeeping between phases are unattributed).
struct AnalysisTimings {
  double ordering = 0.0;          // fill-reducing column ordering
  double transversal = 0.0;       // zero-free diagonal matching
  double symbolic = 0.0;          // static symbolic factorization
  double eforest_postorder = 0.0; // LU eforest + postorder + permute
  double supernodes = 0.0;        // partition + amalgamation
  double blocks = 0.0;            // block structure + closure + beforest
  double taskgraph = 0.0;         // task graph + cost model
  double total = 0.0;
};

struct Options {
  /// Fill-reducing ordering.  kAuto (ordering/engine.h: select_method)
  /// runs nested dissection on regular 3-D-stencil-like patterns and guarded
  /// minimum degree on everything else; the paper's own choice is
  /// kMinimumDegreeAtA, which the reproduction benches pin.
  ordering::Method ordering = ordering::Method::kAuto;
  /// With ordering == kAuto: break the policy call with an exact
  /// Cholesky-fill probe of the pick vs its runner-up (ordering::Controls).
  /// Costs two extra orderings; deterministic either way.
  bool ordering_dry_run = false;
  symbolic::Engine symbolic_engine = symbolic::Engine::kBitset;
  /// Permute by a postorder of the LU eforest (Section 3).  Off reproduces
  /// the "SN" arm of Table 3.
  bool postorder = true;
  bool amalgamate = true;
  symbolic::AmalgamationOptions amalgamation;
  /// Which dependence graph to build (Section 4).  kEforest is the paper's.
  taskgraph::GraphKind task_graph = taskgraph::GraphKind::kEforest;
  /// Numeric layout (core/layout.h): k1D runs the paper's block-column
  /// Factor/Update tasks; k2D runs per-block tasks with block-restricted
  /// pivoting and makes the analysis also build Analysis::block_graph.
  Layout layout = Layout::k1D;
  /// MC64-style preprocessing (graph/weighted_matching.h): permute the rows
  /// so the product of diagonal magnitudes is maximal and scale the matrix
  /// to an I-matrix before everything else.  The standard stability guard
  /// for static-pivoting factorizations.  Requires numeric values, so it is
  /// ignored by analyze_pattern().  Implies symmetric_ordering.
  bool scale_and_permute = false;
  /// Apply the fill-reducing ordering to rows AND columns (instead of
  /// columns only).  Preserves an existing diagonal matching -- which is
  /// the point of scale_and_permute -- at a possible small fill cost.
  bool symmetric_ordering = false;
  /// Kept for perfbench/traced.cpp; see AnalysisOptions.
  AnalysisOptions analysis;
};

/// Everything the numeric factorization and the schedulers need, fully
/// determined before any numeric work (the point of the static approach).
struct Analysis {
  Options options;
  int n = 0;
  int nnz_input = 0;

  /// Permutations (and optional MC64 scalings) such that the factored
  /// matrix is
  ///   Apre(i, j) = rs(i) * A(row_perm.old_of(i), col_perm.old_of(j)) * cs(j)
  /// with rs(i) = row_scale[row_perm.old_of(i)] (1 when scaling is off) and
  /// cs likewise.  The scale vectors are indexed by ORIGINAL row/column.
  Permutation row_perm;
  Permutation col_perm;
  std::vector<double> row_scale;  // empty unless options.scale_and_permute
  std::vector<double> col_scale;

  bool scaled() const { return !row_scale.empty(); }

  /// What the ordering dispatch ran and why (method chosen by the kAuto
  /// policy, structural features, dry-run fill) -- ordering.h.
  ordering::Decision ordering_decision;

  /// Static symbolic factorization of Apre (post-ordering applied).
  symbolic::SymbolicResult symbolic;
  /// Column-level LU eforest of symbolic.abar.
  graph::Forest eforest;

  symbolic::SupernodePartition exact_partition;  // before amalgamation
  symbolic::SupernodePartition partition;        // final
  symbolic::BlockStructure blocks;
  /// Block plan over `blocks` (symbolic/repartition.h): per block column
  /// the L-block list and row offsets and the structural row runs, built
  /// after the row-writer chain check passed.  Cached structure only --
  /// consuming it never changes factor bits.
  symbolic::BlockPlan block_plan;

  taskgraph::TaskGraph graph;
  taskgraph::TaskCosts costs;
  /// Block-granularity task graph (2-D tasks + costs); built only when
  /// options.layout == Layout::k2D -- empty otherwise.  Benchmarks wanting
  /// it without the 2-D numeric path call taskgraph::build_task_graph with
  /// Granularity::kBlock directly.
  taskgraph::TaskGraph block_graph;

  /// Sizes of the diagonal blocks of the block-upper-triangular form
  /// (tree sizes of the postordered eforest; NoBlks of Table 3 is size()).
  std::vector<int> diag_block_sizes;

  /// The analyzed input pattern in the ORIGINAL ordering (what analyze() /
  /// analyze_pattern() was given) and, per entry, its scatter slot under the
  /// final row_perm/col_perm (core/block_storage.h, scatter_slots): the
  /// offset inside its block column's buffer.  Fixed here, before any
  /// numeric work, so loading new values of this pattern is one pass with
  /// no search and no permuted copy.
  Pattern input_pattern;
  std::vector<std::uint64_t> input_slots;

  /// Per-phase wall-clock breakdown of the analyze run that produced this
  /// (excluded from bit-identity comparisons, obviously).
  AnalysisTimings timings;

  double fill_ratio() const { return symbolic.fill_ratio(nnz_input); }

  /// Applies row_perm/col_perm (and the scalings) to the input matrix: the
  /// matrix the factorization loads, as an explicit copy.  The numeric
  /// phase itself never builds it -- it scatters through input_slots.
  CscMatrix permute_input(const CscMatrix& a) const;
};

/// Runs the full pipeline.  Throws std::invalid_argument for non-square or
/// structurally singular input.
Analysis analyze(const CscMatrix& a, const Options& opt = {});

/// Pattern-only variant (values of `a` ignored).
Analysis analyze_pattern(const Pattern& a, const Options& opt = {});

}  // namespace plu
