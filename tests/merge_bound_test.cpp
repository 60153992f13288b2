// Soundness of the bounds Algorithm 2 skips work on, under every evaluator
// option. The two of mergeTAMs, for every rail pair of seeded random
// architectures and every merge width in [max(w_a, w_b), w_a + w_b]:
//  * the partner bound (TamEvaluator::rail_sum with InTest floors at
//    w_a + w_b) never exceeds the candidate's full T_soc, whichever way the
//    leftover wires go (the cheap and precise rules, or all of them on the
//    merged rail);
//  * the candidate bound (CheapMergeBound) replays the cheap rule exactly:
//    its rail widths equal the rule's, the rail sums it reads equal the
//    evaluated candidate's rail times, its bound is the phase bound over
//    those times, and it never exceeds that candidate's T_soc.
// The probe bound (WireProbeBound) never exceeds the T_soc of a +1-wire
// probe, and T_soc ignores the rail order and empty rails, which the start
// solution's in-place merge scan relies on.
// A violation here would let the optimizer miss a candidate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sitest/group.h"
#include "soc/benchmarks.h"
#include "tam/architecture.h"
#include "tam/delta.h"
#include "tam/evaluator.h"
#include "tam/optimizer.h"
#include "tam_instances.h"
#include "util/rng.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

using tamtest::Instance;

/// A seeded random architecture: `rails` non-empty rails sharing w_max
/// wires, each at least one wide.
TamArchitecture random_architecture(int cores, int rails, int w_max,
                                    Rng& rng) {
  TamArchitecture arch;
  arch.rails.resize(static_cast<std::size_t>(rails));
  std::vector<int> order(static_cast<std::size_t>(cores));
  for (int c = 0; c < cores; ++c) order[static_cast<std::size_t>(c)] = c;
  rng.shuffle(order);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t r =
        k < arch.rails.size() ? k
                              : static_cast<std::size_t>(rng.below(
                                    static_cast<std::uint64_t>(rails)));
    arch.rails[r].insert_core(order[k]);
  }
  for (TestRail& rail : arch.rails) rail.width = 1;
  for (int w = rails; w < w_max; ++w) {
    ++arch.rails[static_cast<std::size_t>(
                     rng.below(static_cast<std::uint64_t>(rails)))]
          .width;
  }
  arch.validate(cores);
  return arch;
}

/// arch without rails a and b, plus their merger at `width` (last).
TamArchitecture merged(const TamArchitecture& arch, std::size_t a,
                       std::size_t b, int width) {
  TamArchitecture out;
  for (std::size_t r = 0; r < arch.rails.size(); ++r) {
    if (r != a && r != b) out.rails.push_back(arch.rails[r]);
  }
  TestRail rail = arch.rails[a];
  rail.merge_cores_from(arch.rails[b]);
  rail.width = width;
  out.rails.push_back(std::move(rail));
  return out;
}

/// The optimizer's cheap rule: each wire to the rail with the largest
/// time_used (lowest index on ties).
void distribute_cheap(const TamEvaluator& eval, TamArchitecture& arch,
                      int wires) {
  for (int i = 0; i < wires; ++i) {
    const Evaluation ev = eval.evaluate_reference(arch);
    std::size_t pick = 0;
    for (std::size_t r = 1; r < arch.rails.size(); ++r) {
      if (ev.rails[r].time_used > ev.rails[pick].time_used) pick = r;
    }
    ++arch.rails[pick].width;
  }
}

/// The optimizer's precise rule: each wire to the rail whose extra wire
/// minimizes T_soc (lowest index on ties).
void distribute_precise(const TamEvaluator& eval, TamArchitecture& arch,
                        int wires) {
  for (int i = 0; i < wires; ++i) {
    std::size_t best_rail = 0;
    std::int64_t best_t = std::numeric_limits<std::int64_t>::max();
    for (std::size_t r = 0; r < arch.rails.size(); ++r) {
      ++arch.rails[r].width;
      const std::int64_t t = eval.evaluate_reference(arch).t_soc;
      --arch.rails[r].width;
      if (t < best_t) {
        best_t = t;
        best_rail = r;
      }
    }
    ++arch.rails[best_rail].width;
  }
}

class MergeBoundTest : public ::testing::TestWithParam<int> {};

/// Eight copies of one d695 core, so rails of equal size and width tie on
/// time_used and the cheap rule's first-max tie rule decides.
Instance twins() {
  const Soc d695 = load_benchmark("d695");
  Instance inst{"twins", {}, {}, 16};
  inst.soc.name = "twins";
  for (int c = 0; c < 8; ++c) {
    Module module = d695.modules[1];
    module.id = c + 1;
    inst.soc.modules.push_back(module);
  }
  inst.tests.parts = 3;
  inst.tests.groups = {{"g1", {0, 1, 2, 3, 4, 5, 6, 7}, 20, 20, false, 0},
                       {"g2", {0, 1, 2, 3}, 5, 5, false, 0},
                       {"rem", {4, 5}, 0, 0, true, 0}};
  return inst;
}

Instance instance_for(int index) {
  switch (index) {
    case 4:
      return twins();
    case 0:
      return tamtest::synthetic(10, 3, 16, 0xb0d1ULL);
    case 1:
      return tamtest::synthetic(16, 4, 24, 0xb0d2ULL);
    case 2:
      return tamtest::benchmark("p34392", 4, 24);
    default:
      return tamtest::benchmark("p93791", 4, 24);
  }
}

TEST_P(MergeBoundTest, BoundNeverExceedsAnyCandidate) {
  Instance inst = instance_for(GetParam());
  assign_si_power(inst.tests, inst.soc, 1, 50);
  const TestTimeTable table(inst.soc, inst.w_max);
  const int cores = inst.soc.core_count();
  Rng rng(0x5eed0000ULL + static_cast<std::uint64_t>(GetParam()));
  std::vector<TamArchitecture> archs;
  for (const int rails : {2, 3, 5, 8}) {
    archs.push_back(
        random_architecture(cores, std::min(rails, cores), inst.w_max, rng));
  }

  for (const EvaluatorOptions& options : tamtest::option_variants(inst.tests)) {
    const TamEvaluator eval(inst.soc, table, inst.tests, options);
    for (const TamArchitecture& arch : archs) {
      for (std::size_t a = 0; a < arch.rails.size(); ++a) {
        for (std::size_t b = 0; b < arch.rails.size(); ++b) {
          if (a == b) continue;
          const int wa = arch.rails[a].width;
          const int wb = arch.rails[b].width;
          const std::int64_t bound =
              eval.rail_sum(arch.rails[a].cores, arch.rails[b].cores, wa + wb,
                            TamEvaluator::InTestSum::kFloor)
                  .time_used;
          EXPECT_GT(bound, 0);
          for (int w = std::max(wa, wb); w <= wa + wb; ++w) {
            const int leftover = wa + wb - w;
            TamArchitecture cheap = merged(arch, a, b, w);
            TamArchitecture precise = cheap;
            TamArchitecture widest = cheap;
            distribute_cheap(eval, cheap, leftover);
            distribute_precise(eval, precise, leftover);
            widest.rails.back().width += leftover;
            for (const TamArchitecture* cand : {&cheap, &precise, &widest}) {
              cand->validate(cores);
              EXPECT_LE(bound, eval.evaluate_reference(*cand).t_soc)
                  << inst.name << " " << tamtest::describe(options) << " "
                  << arch.describe() << " rails " << a << "+" << b
                  << " w=" << w << " -> " << cand->describe();
            }
          }
        }
      }
    }
  }
}

// With only the merged rail left at its full width, every SI test runs on
// it alone, one after another after its InTest, so the bound is T_soc
// exactly (the tables here are monotone, so the floor is the InTest).
TEST_P(MergeBoundTest, BoundIsTightWhenTheMergedRailIsAlone) {
  Instance inst = instance_for(GetParam());
  assign_si_power(inst.tests, inst.soc, 1, 50);
  const TestTimeTable table(inst.soc, inst.w_max);
  const int cores = inst.soc.core_count();
  Rng rng(0x71e0000ULL + static_cast<std::uint64_t>(GetParam()));
  const TamArchitecture arch =
      random_architecture(cores, 2, inst.w_max, rng);
  for (const EvaluatorOptions& options : tamtest::option_variants(inst.tests)) {
    const TamEvaluator eval(inst.soc, table, inst.tests, options);
    const TamArchitecture one = merged(arch, 0, 1, inst.w_max);
    EXPECT_EQ(eval.rail_sum(arch.rails[0].cores, arch.rails[1].cores,
                            inst.w_max, TamEvaluator::InTestSum::kFloor)
                  .time_used,
              eval.evaluate_reference(one).t_soc)
        << inst.name << " " << tamtest::describe(options);
  }
}

TEST_P(MergeBoundTest, CheapReplayIsExactAndBoundsEveryCandidate) {
  Instance inst = instance_for(GetParam());
  assign_si_power(inst.tests, inst.soc, 1, 50);
  const TestTimeTable table(inst.soc, inst.w_max);
  const int cores = inst.soc.core_count();
  Rng rng(0xc4ea0000ULL + static_cast<std::uint64_t>(GetParam()));
  std::vector<TamArchitecture> archs;
  for (const int rails : {2, 3, 5, 8}) {
    archs.push_back(
        random_architecture(cores, std::min(rails, cores), inst.w_max, rng));
  }

  if (inst.name == "twins") {
    // Ties the rule must break with one leftover wire: merging rails 0
    // and 1 at w = 2 leaves {0,1} tied with {2,3}, both at 2 (the other
    // rail wins), and merging them at w = 7 leaves {2} tied with {3}, both
    // at 1 (the lower index wins).
    archs.push_back(TamArchitecture{{{{0}, 1, -1},
                                     {{1}, 2, -1},
                                     {{2, 3}, 2, -1},
                                     {{4, 5, 6, 7}, 11, -1}}});
    archs.push_back(TamArchitecture{{{{0}, 4, -1},
                                     {{1}, 4, -1},
                                     {{2}, 1, -1},
                                     {{3}, 1, -1},
                                     {{4, 5, 6, 7}, 6, -1}}});
  }

  for (const EvaluatorOptions& options :
       tamtest::option_variants(inst.tests)) {
    const TamEvaluator eval(inst.soc, table, inst.tests, options);
    CheapMergeBound replay(eval);
    for (const TamArchitecture& arch : archs) {
      for (std::size_t a = 0; a < arch.rails.size(); ++a) {
        replay.bind(arch, a);
        for (std::size_t b = 0; b < arch.rails.size(); ++b) {
          if (a == b) continue;
          replay.set_partner(b);
          const int wa = arch.rails[a].width;
          const int wb = arch.rails[b].width;
          // Widest leftover last, so the lazy tables fill out of order.
          for (int w = wa + wb; w >= std::max(wa, wb); --w) {
            const std::int64_t bound = replay.bound(w);
            TamArchitecture cheap = merged(arch, a, b, w);
            TamArchitecture replayed = cheap;
            replay.distribute(replayed);
            distribute_cheap(eval, cheap, wa + wb - w);
            const Evaluation ev = eval.evaluate_reference(cheap);
            const std::string where =
                inst.name + " " + tamtest::describe(options) + " " +
                arch.describe() + " rails " + std::to_string(a) + "+" +
                std::to_string(b) + " w=" + std::to_string(w) + " -> " +
                cheap.describe();
            // The replay's widths are the rule's, rail by rail.
            ASSERT_EQ(replayed.rails.size(), cheap.rails.size()) << where;
            for (std::size_t r = 0; r < cheap.rails.size(); ++r) {
              EXPECT_EQ(replayed.rails[r].width, cheap.rails[r].width)
                  << where;
            }
            // The rail sums it reads are the evaluated rails' times, and
            // its bound is the phase bound over exactly those times.
            RailTimes max;
            for (std::size_t r = 0; r < cheap.rails.size(); ++r) {
              const TestRail& rail = cheap.rails[r];
              EXPECT_EQ(eval.rail_sum(rail.cores, {}, rail.width,
                                      TamEvaluator::InTestSum::kExact),
                        ev.rails[r])
                  << where << " rail " << r;
              max.time_in = std::max(max.time_in, ev.rails[r].time_in);
              max.time_si = std::max(max.time_si, ev.rails[r].time_si);
              max.time_used = std::max(max.time_used, ev.rails[r].time_used);
            }
            EXPECT_EQ(bound, options.interleave_phases
                                 ? max.time_used
                                 : max.time_in + max.time_si)
                << where;
            EXPECT_LE(bound, ev.t_soc) << where;
          }
        }
      }
    }
  }
}

// The bound on Algorithm 2's +1-wire probes (WireProbeBound): for every
// rail of seeded random architectures, before and after wires are handed
// out through widen() as distributeFreeWires does, it is the phase bound
// over the probe's evaluated rail times and never exceeds the probe's T_soc.
TEST_P(MergeBoundTest, ProbeBoundNeverExceedsTheProbe) {
  Instance inst = instance_for(GetParam());
  assign_si_power(inst.tests, inst.soc, 1, 50);
  const TestTimeTable table(inst.soc, inst.w_max);
  const int cores = inst.soc.core_count();
  Rng rng(0x9b0b0000ULL + static_cast<std::uint64_t>(GetParam()));
  std::vector<TamArchitecture> archs;
  for (const int rails : {1, 2, 3, 5, 8}) {
    archs.push_back(
        random_architecture(cores, std::min(rails, cores), inst.w_max, rng));
  }

  for (const EvaluatorOptions& options :
       tamtest::option_variants(inst.tests)) {
    const TamEvaluator eval(inst.soc, table, inst.tests, options);
    WireProbeBound probe(eval);
    for (TamArchitecture arch : archs) {
      probe.bind(arch, eval.evaluate_reference(arch).rails);
      for (int wire = 0; wire < 3; ++wire) {
        for (std::size_t r = 0; r < arch.rails.size(); ++r) {
          TamArchitecture wide = arch;
          ++wide.rails[r].width;
          const Evaluation ev = eval.evaluate_reference(wide);
          RailTimes max;
          for (const RailTimes& rail : ev.rails) {
            max.time_in = std::max(max.time_in, rail.time_in);
            max.time_si = std::max(max.time_si, rail.time_si);
            max.time_used = std::max(max.time_used, rail.time_used);
          }
          const std::string where = inst.name + " " +
                                    tamtest::describe(options) + " " +
                                    wide.describe() + " rail " +
                                    std::to_string(r);
          EXPECT_EQ(probe.bound(r), options.interleave_phases
                                        ? max.time_used
                                        : max.time_in + max.time_si)
              << where;
          EXPECT_LE(probe.bound(r), ev.t_soc) << where;
        }
        const std::size_t got =
            rng.below(static_cast<std::uint64_t>(arch.rails.size()));
        ++arch.rails[got].width;
        probe.widen(got);
      }
    }
  }
}

/// `arch` with its rails in a seeded random order and an empty rail
/// inserted at a random position.
TamArchitecture shuffled_with_empty_rail(const TamArchitecture& arch,
                                         Rng& rng) {
  TamArchitecture out = arch;
  rng.shuffle(out.rails);
  const auto at = static_cast<std::ptrdiff_t>(
      rng.below(static_cast<std::uint64_t>(out.rails.size() + 1)));
  out.rails.insert(out.rails.begin() + at, TestRail{{}, 1, -1});
  return out;
}

// T_soc depends neither on the rail order nor on an empty rail, on the full
// and on the delta evaluator: the start solution scores each merge partner
// on the architecture with the partner holding the victim's cores and the
// victim left empty, at fixed rail positions, instead of the merged
// architecture (docs/algorithms.md §5).
TEST_P(MergeBoundTest, TsocIgnoresRailOrderAndEmptyRails) {
  Instance inst = instance_for(GetParam());
  assign_si_power(inst.tests, inst.soc, 1, 50);
  const TestTimeTable table(inst.soc, inst.w_max);
  const int cores = inst.soc.core_count();
  Rng rng(0x1a70000ULL + static_cast<std::uint64_t>(GetParam()));
  std::vector<TamArchitecture> archs;
  for (const int rails : {2, 3, 5, 8}) {
    archs.push_back(
        random_architecture(cores, std::min(rails, cores), inst.w_max, rng));
  }

  for (const EvaluatorOptions& options :
       tamtest::option_variants(inst.tests)) {
    const TamEvaluator eval(inst.soc, table, inst.tests, options);
    DeltaEvaluator delta(eval);
    for (const TamArchitecture& arch : archs) {
      const std::string where =
          inst.name + " " + tamtest::describe(options) + " " + arch.describe();
      const std::int64_t t = eval.evaluate_reference(arch).t_soc;
      for (int round = 0; round < 3; ++round) {
        const TamArchitecture layout = shuffled_with_empty_rail(arch, rng);
        EXPECT_EQ(eval.t_soc(layout), t) << where << " -> " << layout.describe();
        EXPECT_EQ(delta.t_soc(layout), t)
            << where << " -> " << layout.describe();
      }
      // The start solution's scan: each victim's partners in turn, the
      // delta evaluator patching two rails at fixed positions per partner.
      for (std::size_t victim = 0; victim < arch.rails.size(); ++victim) {
        TamArchitecture layout = arch;
        layout.rails[victim].cores.clear();
        static_cast<void>(delta.t_soc(arch));
        for (std::size_t partner = 0; partner < arch.rails.size();
             ++partner) {
          if (partner == victim) continue;
          layout.rails[partner].merge_cores_from(arch.rails[victim]);
          const std::int64_t expected =
              eval.evaluate_reference(
                      merged(arch, victim, partner,
                             arch.rails[partner].width))
                  .t_soc;
          EXPECT_EQ(eval.t_soc(layout), expected)
              << where << " -> " << layout.describe();
          EXPECT_EQ(delta.t_soc(layout), expected)
              << where << " -> " << layout.describe();
          layout.rails[partner].cores = arch.rails[partner].cores;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Socs, MergeBoundTest,
                         ::testing::Values(0, 1, 2, 3, 4));

}  // namespace
}  // namespace sitam
