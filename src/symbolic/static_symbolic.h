// Static symbolic factorization (George & Ng, ref. [6] of the paper).
//
// Computes the filled pattern Abar = Lbar + Ubar - I that contains the
// structures of the L and U factors of PA for EVERY row permutation P that
// partial pivoting can produce.  The scheme: at step k, the pivot-candidate
// rows R_k = { i >= k : abar_ik != 0 } all receive the union of their
// structures restricted to columns >= k -- whichever of them becomes the
// pivot row, the fill it causes is covered.
//
// The LU factorization is then computed on Abar instead of A (the S*/S+
// approach): some operations touch explicit zeros, but the structure, the
// task graph and the schedule are all known statically.
//
// Three engines:
//   * kBitset    - rows as 64-bit word bitsets; O(sum |R_k| * n/64) words.
//     The production engine for the problem sizes in the paper (n <= ~10^4).
//   * kRowMerge  - rows as sorted index vectors updated by set-union.
//     Independent implementation used to cross-validate the bitset engine
//     and as the second arm of the A3 ablation bench.
//   * kParallelBitset - the bitset engine with the inner work of each
//     elimination step fanned out over an rt::Team (GSoFa-style pivot-row
//     parallelism): the candidate-row union becomes per-lane partial ORs
//     into worker scratch (blas/scratch.h) followed by a combine, and the
//     union assignment is split across candidate rows with atomic ORs into
//     the shared column bitsets.  Every per-step operation is commutative
//     or write-disjoint, so the result is BIT-IDENTICAL to kBitset on every
//     input -- the determinism contract of the parallel analysis tier
//     (DESIGN.md section 11); tests/test_parallel_analysis.cpp gates it.
//     Falls back to the sequential engine for single-lane teams, and runs
//     small steps inline (rt::Team::min_work).
#pragma once

#include <string>

#include "matrix/csc.h"
#include "runtime/parallel_for.h"

namespace plu::symbolic {

enum class Engine { kBitset, kRowMerge, kParallelBitset };

/// Thread-count / gating knobs for Engine::kParallelBitset when the caller
/// does not provide its own team.
struct ParallelSymbolicOptions {
  int threads = 0;  // 0 = std::thread::hardware_concurrency()
  /// Per-step work gate in words (candidates * tail words); steps below it
  /// run inline on the calling thread.  Tests set 0 to force every step
  /// through the parallel paths.
  long min_step_work = rt::Team::kDefaultMinWork;
};

struct SymbolicResult {
  Pattern abar;   // filled pattern, diagonal included
  long nnz_lbar;  // entries of Lbar including the diagonal
  long nnz_ubar;  // entries of Ubar including the diagonal

  /// |Abar| / |A|, the fill ratio reported in Table 1.
  double fill_ratio(int nnz_a) const {
    return nnz_a > 0 ? static_cast<double>(abar.nnz()) / nnz_a : 0.0;
  }
};

/// Runs the static symbolic factorization.  The pattern must be square with
/// a zero-free (structural) diagonal; throws std::invalid_argument otherwise.
/// kParallelBitset spins up its own rt::Team sized from
/// ParallelSymbolicOptions defaults; prefer the team overload when the
/// caller already owns one.
SymbolicResult static_symbolic_factorization(const Pattern& a,
                                             Engine engine = Engine::kBitset);

/// Team-aware overload: kParallelBitset fans its per-step work out over
/// `team`; the sequential engines ignore it.
SymbolicResult static_symbolic_factorization(const Pattern& a, Engine engine,
                                             rt::Team& team);

/// True if `abar` is a fixed point of the scheme: re-running the static
/// symbolic factorization on it adds nothing.  NOTE: the scheme is
/// sequence-dependent, so a filled pattern is generally NOT a fixed point
/// (a row that left the candidate pool early keeps a shorter tail than its
/// one-time peers; a re-run unions them).  Theorem 3 is the *commutation*
/// property checked by postorder_commutes_with_symbolic(), not a fixed
/// point.
bool is_symbolic_fixed_point(const Pattern& abar, Engine engine = Engine::kBitset);

/// Theorem 3, operationally: static symbolic factorization commutes with a
/// symmetric eforest-postorder permutation, i.e.
///   symbolic(P^T A P) == P^T symbolic(A) P.
/// `a` is the pre-symbolic pattern (zero-free diagonal), `abar` its filled
/// pattern, `perm` the postorder relabeling.  This is what lets analysis
/// permute Abar directly instead of recomputing the symbolic step.
bool postorder_commutes_with_symbolic(const Pattern& a, const Pattern& abar,
                                      const Permutation& perm,
                                      Engine engine = Engine::kBitset);

std::string to_string(Engine e);

// ---------------------------------------------------------------------------
// Fill analysis: how much does the static scheme overestimate?
// ---------------------------------------------------------------------------
// The paper motivates the static approach against SuperLU's dynamic symbolic
// factorization; the cost is overestimation (operations on explicit zeros).
// These helpers quantify it.

/// Symbolic fill of an elimination with a FIXED pivot order (no pivoting):
/// at step k only row k spreads its tail to rows with an entry in column k.
/// This is the fill the factorization actually produces for the pivot
/// sequence that renders the matrix's diagonal (apply the known pivot
/// permutation to the rows first to evaluate a specific run).
Pattern no_pivot_fill(const Pattern& a);

/// Upper bound used by SuperLU's column-etree approach: the Cholesky factor
/// structure of A^T A (as L + L^T with diagonal), which the paper says
/// "substantially overestimates" the LU structures.
Pattern ata_cholesky_bound(const Pattern& a);

}  // namespace plu::symbolic
