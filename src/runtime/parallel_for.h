// rt::Team: an empty type kept for perfbench/traced.cpp.
//
// The analysis is one sequential path (DESIGN.md section 11).  The traced
// benchmark replay still constructs `plu::rt::Team team(1, min_work)` and
// passes it to the analysis steps, so the type and the one-line
// forwarding overloads that take it stay until the next benchmark change
// deletes them (ROADMAP, perfbench upkeep).  Nothing in the library reads
// it.
#pragma once

namespace plu::rt {

class Team {
 public:
  explicit Team(int /*threads*/, long /*min_work*/ = 0) {}
};

}  // namespace plu::rt
