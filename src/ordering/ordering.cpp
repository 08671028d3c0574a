#include "ordering/ordering.h"

#include "ordering/engine.h"

namespace plu::ordering {

Permutation compute_column_ordering(const Pattern& a, Method method) {
  return compute_column_ordering(a, method, Controls{}, nullptr);
}

Permutation compute_column_ordering(const Pattern& a, Method method,
                                    const Controls& ctl, Decision* decision) {
  Decision local;
  Decision& d = decision ? *decision : local;
  d = Decision{};
  d.requested = method;
  d.features = compute_features(a);

  Method chosen = method;
  if (method == Method::kAuto) {
    chosen = select_method(d.features);
    if (ctl.dry_run && d.features.n > 0 && d.features.n <= ctl.dry_run_max_n) {
      // Exact fill probe: run the pick and its runner-up, keep the smaller.
      const Method alt = runner_up(chosen);
      const Pattern g = Pattern::ata(a);
      Permutation p_chosen = engine_for(chosen).order(g);
      Permutation p_alt = engine_for(alt).order(g);
      d.dry_run = true;
      d.dry_run_fill_chosen = cholesky_fill(g, p_chosen);
      d.dry_run_fill_alternative = cholesky_fill(g, p_alt);
      if (d.dry_run_fill_alternative < d.dry_run_fill_chosen) {
        std::swap(d.dry_run_fill_chosen, d.dry_run_fill_alternative);
        chosen = alt;
        p_chosen = std::move(p_alt);
      }
      d.chosen = chosen;
      d.engine = engine_for(chosen).name();
      return p_chosen;
    }
  }
  d.chosen = chosen;
  const OrderingEngine& eng = engine_for(chosen);
  d.engine = eng.name();
  if (chosen == Method::kNatural) return Permutation(a.cols);
  return eng.order(Pattern::ata(a));
}

std::string to_string(Method m) {
  switch (m) {
    case Method::kNatural:
      return "natural";
    case Method::kMinimumDegreeAtA:
      return "mindeg(AtA)";
    case Method::kAmdAtA:
      return "amd(AtA)";
    case Method::kRcmAtA:
      return "rcm(AtA)";
    case Method::kNestedDissectionAtA:
      return "nd(AtA)";
    case Method::kAuto:
      return "auto";
  }
  return "?";
}

bool parse_method(const std::string& s, Method* out) {
  if (s == "natural") {
    *out = Method::kNatural;
  } else if (s == "md" || s == "mindeg") {
    *out = Method::kMinimumDegreeAtA;
  } else if (s == "amd") {
    *out = Method::kAmdAtA;
  } else if (s == "rcm") {
    *out = Method::kRcmAtA;
  } else if (s == "nd") {
    *out = Method::kNestedDissectionAtA;
  } else if (s == "auto") {
    *out = Method::kAuto;
  } else {
    return false;
  }
  return true;
}

}  // namespace plu::ordering
