// Fill-reducing column ordering dispatch for the unsymmetric LU pipeline.
//
// All methods operate on the A^T A pattern, matching the paper's choice
// ("we use the minimum degree algorithm on A^T A").  Natural and RCM exist
// for the A4 ordering ablation; kAmdAtA is the supervariable engine for
// hub-heavy patterns (amd.h); kAuto, the library default, lets the
// feature-driven policy (engine.h) pick minimum degree or nested
// dissection, recording its decision for the reports.
#pragma once

#include <string>

#include "matrix/csc.h"
#include "matrix/permutation.h"

namespace plu::rt {
class Team;
}

namespace plu::ordering {

enum class Method {
  kNatural,               // identity
  kMinimumDegreeAtA,      // the paper's choice (exact degrees, hub-guarded)
  kAmdAtA,                // approximate minimum degree with supervariables
  kRcmAtA,                // reverse Cuthill-McKee on A^T A
  kNestedDissectionAtA,   // recursive bisection on A^T A (bushy forests)
  kAuto,                  // feature-driven policy picks MD or ND
};

/// Cheap structural features of the input pattern A (computed in one O(nnz)
/// scan), the evidence the kAuto policy decides on.
struct StructuralFeatures {
  int n = 0;
  long nnz = 0;
  double density = 0.0;         // nnz / n^2
  double avg_degree = 0.0;      // nnz / n
  int max_degree = 0;           // max column degree
  double degree_skew = 0.0;     // max_degree / avg_degree (hub indicator)
  double bandwidth_ratio = 0.0; // max |i - j| over entries (bandwidth) / n
};

/// What the dispatch decided and why -- recorded in Analysis and surfaced
/// through AnalysisReport / FactorizationReport.
struct Decision {
  Method requested = Method::kMinimumDegreeAtA;
  Method chosen = Method::kMinimumDegreeAtA;  // == requested unless kAuto
  std::string engine;                         // OrderingEngine::name() that ran
  StructuralFeatures features;
  /// Dry-run record (kAuto with Controls::dry_run only): exact Cholesky fill
  /// of the policy pick and its runner-up; the smaller one wins.
  bool dry_run = false;
  long dry_run_fill_chosen = 0;
  long dry_run_fill_alternative = 0;
};

/// Knobs for the ordering dispatch.  The dry-run changes WHICH engine kAuto
/// runs but is itself deterministic.
struct Controls {
  /// Not read; kept because perfbench/traced.cpp sets it
  /// (runtime/parallel_for.h).
  rt::Team* team = nullptr;
  /// Break kAuto policy calls with an exact Cholesky-fill probe of the pick
  /// vs its runner-up.  Costs two extra orderings; gated by dry_run_max_n.
  bool dry_run = false;
  int dry_run_max_n = 20000;
};

/// Column permutation for LU on `a` per the chosen method.
Permutation compute_column_ordering(const Pattern& a, Method method);

/// Full-control variant: applies the controls and reports the decision
/// (`decision` may be null).
Permutation compute_column_ordering(const Pattern& a, Method method,
                                    const Controls& ctl, Decision* decision);

std::string to_string(Method m);

/// Parses a CLI/bench spelling: natural | md | mindeg | amd | rcm | nd |
/// auto.  Returns false (and leaves *out alone) for anything else.
bool parse_method(const std::string& s, Method* out);

}  // namespace plu::ordering
