#include "tam/bounds.h"

#include <algorithm>
#include <stdexcept>

#include "tam/evaluator.h"

namespace sitam {

LowerBounds lower_bounds(const Soc& soc, const TestTimeTable& table,
                         const SiTestSet& tests, int w_max) {
  if (w_max < 1) {
    throw std::invalid_argument("lower_bounds: w_max must be >= 1");
  }
  if (table.core_count() != soc.core_count()) {
    throw std::invalid_argument(
        "lower_bounds: TestTimeTable core count mismatches the SOC");
  }

  LowerBounds bounds;

  // InTest: (a) every core must finish even with all W wires to itself;
  // (b) the pipelined bit volume must flow through W wires.
  std::int64_t volume = 0;
  for (int c = 0; c < soc.core_count(); ++c) {
    bounds.t_in = std::max(bounds.t_in, table.intest(c, w_max));
    const Module& m = soc.modules[static_cast<std::size_t>(c)];
    volume += (m.scan_flops() +
               std::max<std::int64_t>(m.wic(), m.woc())) *
              m.patterns;
  }
  bounds.t_in = std::max(bounds.t_in, (volume + w_max - 1) / w_max);

  // SI: (a) per group, no pattern shifts faster than the group's WOC bits
  // spread evenly over all W wires — ceil(sum WOC / W), not the sum of
  // per-core ceilings, which narrower parallel rails can round below;
  // (b) the groups' boundary bit volume must flow through W wires.
  std::int64_t si_bits = 0;
  for (const SiTestGroup& group : tests.groups) {
    if (group.patterns <= 0) continue;
    std::int64_t group_woc = 0;
    for (const int core : group.cores) {
      group_woc += soc.modules[static_cast<std::size_t>(core)].woc();
    }
    const std::int64_t best_shift = (group_woc + w_max - 1) / w_max;
    const std::int64_t best_case =
        (group.patterns + 1) * best_shift + kSiApplyCycles * group.patterns;
    bounds.t_si = std::max(bounds.t_si, best_case);
    si_bits += (group.patterns + 1) * group_woc;
  }
  bounds.t_si =
      std::max(bounds.t_si, tests.groups.empty()
                                ? 0
                                : (si_bits + w_max - 1) / w_max);
  return bounds;
}

}  // namespace sitam
