// Soundness of the mergeTAMs partner bound (TamEvaluator::merged_rail_floor):
// for every rail pair of seeded random architectures, every merge width in
// [max(w_a, w_b), w_a + w_b] and every way the optimizer hands out the
// leftover wires (its cheap and precise rules, and all of them on the
// merged rail), the bound never exceeds the candidate's full T_soc, under
// every evaluator option. mergeTAMs skips a partner on this bound, so a
// violation here would let the optimizer miss a candidate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/flow.h"
#include "interconnect/terminal_space.h"
#include "interconnect/topology.h"
#include "pattern/generator.h"
#include "sitest/group.h"
#include "soc/benchmarks.h"
#include "soc/synth.h"
#include "tam/architecture.h"
#include "tam/evaluator.h"
#include "util/rng.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

struct Instance {
  std::string name;
  Soc soc;
  SiTestSet tests;
  int w_max = 0;
};

/// A synthetic SOC with SI tests drawn from a Fig. 1 topology.
Instance synthetic(int cores, int parts, int w_max, std::uint64_t seed) {
  SynthSocConfig soc_config;
  soc_config.cores = cores;
  soc_config.name = "bound" + std::to_string(seed);
  Rng rng(seed);
  Instance inst{soc_config.name, generate_soc(soc_config, rng), {}, w_max};
  const TerminalSpace terminals(inst.soc);
  const Topology topology =
      generate_topology(terminals, TopologyConfig{}, rng);
  const std::vector<SiPattern> patterns = generate_topology_patterns(
      topology, terminals, 600, TopologyPatternConfig{}, rng);
  inst.tests = build_si_test_set(patterns, terminals, parts, GroupingConfig{});
  return inst;
}

Instance benchmark(const std::string& name, int parts, int w_max) {
  Instance inst{name, load_benchmark(name), {}, w_max};
  SiWorkloadConfig config;
  config.pattern_count = 800;
  config.groupings = {parts};
  inst.tests = SiWorkload::prepare(inst.soc, config).tests(parts);
  return inst;
}

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

/// Every option variant: three pick rules, both phase modes, with and
/// without a power budget (half again the largest group's power), on both
/// architecture styles.
std::vector<EvaluatorOptions> option_variants(const SiTestSet& tests) {
  std::int64_t max_power = 0;
  for (const SiTestGroup& g : tests.groups) {
    max_power = std::max(max_power, g.power);
  }
  std::vector<EvaluatorOptions> variants;
  for (const ArchitectureStyle style :
       {ArchitectureStyle::kTestRail, ArchitectureStyle::kTestBus}) {
    for (const SchedulePick pick :
         {SchedulePick::kLongestFirst, SchedulePick::kShortestFirst,
          SchedulePick::kInputOrder}) {
      for (const bool interleave : {false, true}) {
        for (const std::int64_t budget : {std::int64_t{0}, max_power * 3 / 2}) {
          EvaluatorOptions options;
          options.style = style;
          options.pick = pick;
          options.interleave_phases = interleave;
          options.power_budget = budget;
          variants.push_back(options);
        }
      }
    }
  }
  return variants;
}

std::string describe(const EvaluatorOptions& options) {
  return "style=" + std::to_string(static_cast<int>(options.style)) +
         " pick=" + std::to_string(static_cast<int>(options.pick)) +
         " interleave=" + std::to_string(options.interleave_phases) +
         " budget=" + std::to_string(options.power_budget);
}

class MergeBoundTest : public ::testing::TestWithParam<int> {};

Instance instance_for(int index) {
  switch (index) {
    case 0:
      return synthetic(10, 3, 16, 0xb0d1ULL);
    case 1:
      return synthetic(16, 4, 24, 0xb0d2ULL);
    case 2:
      return benchmark("p34392", 4, 24);
    default:
      return benchmark("p93791", 4, 24);
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

  for (const EvaluatorOptions& options : option_variants(inst.tests)) {
    const TamEvaluator eval(inst.soc, table, inst.tests, options);
    for (const TamArchitecture& arch : archs) {
      for (std::size_t a = 0; a < arch.rails.size(); ++a) {
        for (std::size_t b = 0; b < arch.rails.size(); ++b) {
          if (a == b) continue;
          const int wa = arch.rails[a].width;
          const int wb = arch.rails[b].width;
          const std::int64_t bound =
              eval.merged_rail_floor(arch.rails[a], arch.rails[b], wa + wb);
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
                  << inst.name << " " << describe(options) << " "
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
  for (const EvaluatorOptions& options : option_variants(inst.tests)) {
    const TamEvaluator eval(inst.soc, table, inst.tests, options);
    const TamArchitecture one = merged(arch, 0, 1, inst.w_max);
    EXPECT_EQ(eval.merged_rail_floor(arch.rails[0], arch.rails[1], inst.w_max),
              eval.evaluate_reference(one).t_soc)
        << inst.name << " " << describe(options);
  }
}

INSTANTIATE_TEST_SUITE_P(Socs, MergeBoundTest, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace sitam
