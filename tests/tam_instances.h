// Shared fixtures for the TAM exactness tests: seeded synthetic SOCs with
// SI tests from a Fig. 1 topology, the prepared p34392/p93791 workloads,
// and every EvaluatorOptions combination.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/flow.h"
#include "interconnect/terminal_space.h"
#include "interconnect/topology.h"
#include "pattern/generator.h"
#include "sitest/group.h"
#include "soc/benchmarks.h"
#include "soc/synth.h"
#include "tam/evaluator.h"
#include "util/rng.h"

namespace sitam::tamtest {

struct Instance {
  std::string name;
  Soc soc;
  SiTestSet tests;
  int w_max = 0;
};

/// A synthetic SOC with SI tests drawn from a Fig. 1 topology.
inline Instance synthetic(int cores, int parts, int w_max,
                          std::uint64_t seed) {
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

/// A benchmark SOC with the SI tests of an 800-pattern workload.
inline Instance benchmark(const std::string& name, int parts, int w_max) {
  Instance inst{name, load_benchmark(name), {}, w_max};
  SiWorkloadConfig config;
  config.pattern_count = 800;
  config.groupings = {parts};
  inst.tests = SiWorkload::prepare(inst.soc, config).tests(parts);
  return inst;
}

/// Every option variant (24): three pick rules, both phase modes, with and
/// without a power budget (half again the largest group's power), on both
/// architecture styles.
inline std::vector<EvaluatorOptions> option_variants(const SiTestSet& tests) {
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

inline std::string describe(const EvaluatorOptions& options) {
  return "style=" + std::to_string(static_cast<int>(options.style)) +
         " pick=" + std::to_string(static_cast<int>(options.pick)) +
         " interleave=" + std::to_string(options.interleave_phases) +
         " budget=" + std::to_string(options.power_budget);
}

}  // namespace sitam::tamtest
