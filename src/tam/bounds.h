// Architecture-independent lower bounds on the SOC test time.
//
// Used to report optimality gaps for the heuristic optimizer:
//  * InTest: no architecture can beat the slowest single core at full width,
//    nor ship the SOC's pipelined test data volume faster than volume/W.
//  * SI: no SI test group shifts a pattern faster than its cores' WOC bits
//    spread evenly over all W wires; and the total boundary bit volume of
//    all groups must flow through W wires.
#pragma once

#include <cstdint>

#include "sitest/group.h"
#include "soc/soc.h"
#include "wrapper/design.h"

namespace sitam {

struct LowerBounds {
  std::int64_t t_in = 0;
  std::int64_t t_si = 0;
  [[nodiscard]] std::int64_t t_soc() const { return t_in + t_si; }
};

/// Computes the bounds for total TAM width `w_max`. The table must cover
/// the same SOC; throws std::invalid_argument otherwise or if w_max < 1.
[[nodiscard]] LowerBounds lower_bounds(const Soc& soc,
                                       const TestTimeTable& table,
                                       const SiTestSet& tests, int w_max);

}  // namespace sitam
