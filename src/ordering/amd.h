// Approximate minimum degree (AMD) on a symmetric pattern.
//
// The exact quotient-graph engine (minimum_degree.h) recomputes exact
// external degrees after every elimination round, which degenerates to
// quadratic work on hub columns (power-law / circuit-rail patterns: one
// elimination touches thousands of neighbors, each degree refresh rescans
// the hub element).  This engine is the classic AMD answer, following the
// multithreading recipe of the parallel-AMD paper (Chang/Buluc/Demmel,
// PAPERS.md):
//   - supervariables: indistinguishable variables (identical quotient-graph
//     adjacency) are merged and eliminated together, so a hub clique
//     collapses to one weighted variable instead of thousands of singletons;
//   - approximate external degrees: d(u) <= |A_u| + sum_e |L_e| without
//     deduplicating across element boundaries -- O(|adj|) per refresh
//     instead of O(reach);
//   - mass elimination: a supervariable whose approximate degree drops to
//     zero has no live neighbors outside itself and is eliminated on the
//     spot, no pivot search needed;
//   - multiple-elimination rounds: every round eliminates an independent set
//     of minimum-degree pivots before any degree refresh (bushy eforests).
//
// The returned permutation is a pure function of the pattern.
#pragma once

#include "matrix/csc.h"
#include "matrix/permutation.h"

namespace plu::ordering {

/// AMD elimination order for a symmetric pattern (symmetrized internally,
/// diagonal ignored).  Gather form: old_of(k) = variable eliminated k-th.
Permutation approximate_minimum_degree(const Pattern& symmetric_pattern);

/// Convenience for unsymmetric LU: AMD on the A^T A pattern.
Permutation approximate_minimum_degree_ata(const Pattern& a);

/// True when a symmetric graph's degree profile would send the EXACT
/// minimum-degree engine quadratic (large order + hub vertices whose degree
/// dwarfs the average).  minimum_degree_guarded() routes such graphs here.
bool hub_heavy(const Pattern& symmetric_graph);

}  // namespace plu::ordering
