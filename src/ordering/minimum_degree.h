// Minimum-degree ordering on a symmetric pattern.
//
// The paper's fill-reducing step is "the minimum degree algorithm on A^T A"
// (Section 1).  This is a quotient-graph implementation with exact external
// degrees, element absorption, degree bucket lists and GENMMD-style multiple
// elimination (one pass eliminates every independent variable of the
// minimum degree, then refreshes the touched ones).
//
// The refresh after a pass avoids rescanning the elements it created.
// Each variable keeps its plain edges twice: in input order (that order
// fixes element boundaries, and so the tie-breaking; it is never pruned)
// and as a pruned list own[u] of the edges no live element of u reaches.
// For each new element N it counts |e \ N| once per old element e of N's
// members; a member of N alone with at most one old element then gets its
// degree from those counts without a scan, one with more scans only its old
// elements, and only members of two or more new elements rescan all of
// theirs.  The degrees are exact, so the permutation is the one a full
// rescan gives (tests/md_reference.h keeps that engine as the test oracle).
//
// There is no supervariable detection, so hub vertices whose degree dwarfs
// the average still make the refresh quadratic; minimum_degree_guarded()
// detects that profile (amd.h: hub_heavy) and routes it to the
// approximate-minimum-degree engine.  DESIGN.md section 15 has the details.
#pragma once

#include "matrix/csc.h"
#include "matrix/permutation.h"

namespace plu::ordering {

/// Computes a minimum-degree elimination order for a symmetric pattern
/// (diagonal ignored).  Returns the permutation in gather form:
/// old_of(k) = the variable eliminated k-th.  Always the exact engine.
Permutation minimum_degree(const Pattern& symmetric_pattern);

/// Exact minimum degree with the hub guard: hub-heavy graphs (amd.h) route
/// to approximate_minimum_degree; everything else runs the exact engine.
/// The route is a pure function of the pattern.
Permutation minimum_degree_guarded(const Pattern& symmetric_pattern);

/// Convenience for unsymmetric LU: guarded minimum degree on A^T A.
Permutation minimum_degree_ata(const Pattern& a);

}  // namespace plu::ordering
