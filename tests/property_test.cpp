// Randomized cross-module property tests: the whole pipeline (synthetic
// SOC -> workload -> 2-D compaction -> optimization -> scheduling) must
// uphold its invariants on SOCs it has never seen, not just on the
// embedded benchmarks.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include "core/flow.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "sitest/group.h"
#include "soc/synth.h"
#include "tam/bounds.h"
#include "tam/evaluator.h"
#include "tam/exhaustive.h"
#include "tam/optimizer.h"
#include "tam/verify.h"
#include "util/rng.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

struct PipelineCase {
  int cores;
  int w_max;
  std::int64_t patterns;
  int parts;
  std::uint64_t seed;
};

class PipelinePropertyTest : public ::testing::TestWithParam<PipelineCase> {
};

TEST_P(PipelinePropertyTest, FullPipelineInvariants) {
  const PipelineCase c = GetParam();
  SynthSocConfig soc_config;
  soc_config.cores = c.cores;
  soc_config.name = "prop" + std::to_string(c.seed);
  Rng rng(c.seed);
  const Soc soc = generate_soc(soc_config, rng);
  const TerminalSpace ts(soc);

  // Workload generation + vertical compaction soundness.
  const RandomPatternConfig pattern_config;
  auto patterns =
      generate_random_patterns(ts, c.patterns, pattern_config, rng);
  const auto compacted =
      compact_greedy(patterns, ts.total(), pattern_config.bus_width);
  ASSERT_EQ(first_uncovered(patterns, compacted.patterns), -1);

  // Grouping: raw pattern conservation, core partition.
  const SiTestSet tests =
      build_si_test_set(patterns, ts, c.parts, GroupingConfig{});
  EXPECT_EQ(tests.total_raw_patterns(), c.patterns);
  std::vector<bool> seen(static_cast<std::size_t>(soc.core_count()), false);
  for (const SiTestGroup& g : tests.groups) {
    EXPECT_TRUE(std::is_sorted(g.cores.begin(), g.cores.end()));
    if (g.is_remainder) continue;
    for (const int core : g.cores) {
      EXPECT_FALSE(seen[static_cast<std::size_t>(core)]);
      seen[static_cast<std::size_t>(core)] = true;
    }
  }

  // Optimization: validity, wire conservation, lower bounds, consistency.
  const TestTimeTable table(soc, c.w_max);
  const OptimizeResult result =
      optimize_tam(soc, table, tests, c.w_max);
  EXPECT_EQ(result.architecture.total_width(), c.w_max);
  ASSERT_NO_THROW(result.architecture.validate(soc.core_count()));
  EXPECT_EQ(result.evaluation.t_soc,
            result.evaluation.t_in + result.evaluation.t_si);
  const LowerBounds bounds = lower_bounds(soc, table, tests, c.w_max);
  EXPECT_GE(result.evaluation.t_in, bounds.t_in);
  EXPECT_GE(result.evaluation.t_si, bounds.t_si);

  // Schedule: items per non-empty group, no same-rail overlap, makespan.
  std::size_t non_empty = 0;
  for (const SiTestGroup& g : tests.groups) {
    if (g.patterns > 0) ++non_empty;
  }
  const SiSchedule& schedule = result.evaluation.schedule;
  EXPECT_EQ(schedule.items.size(), non_empty);
  std::int64_t max_end = 0;
  for (std::size_t i = 0; i < schedule.items.size(); ++i) {
    const SiScheduleItem& a = schedule.items[i];
    EXPECT_GE(a.begin, 0);
    EXPECT_EQ(a.end, a.begin + a.duration);
    max_end = std::max(max_end, a.end);
    for (std::size_t j = i + 1; j < schedule.items.size(); ++j) {
      const SiScheduleItem& b = schedule.items[j];
      const bool share = std::any_of(
          a.rails.begin(), a.rails.end(), [&](int r) {
            return std::find(b.rails.begin(), b.rails.end(), r) !=
                   b.rails.end();
          });
      if (share) {
        EXPECT_FALSE(a.begin < b.end && b.begin < a.end)
            << "overlap between items " << i << " and " << j;
      }
    }
  }
  EXPECT_EQ(schedule.makespan, max_end);

  // Per-rail accounting: time_used = time_in + time_si, t_in = max.
  std::int64_t max_in = 0;
  for (const RailTimes& rail : result.evaluation.rails) {
    EXPECT_EQ(rail.time_used, rail.time_in + rail.time_si);
    max_in = std::max(max_in, rail.time_in);
  }
  EXPECT_EQ(result.evaluation.t_in, max_in);

  // The independent verifier agrees on every random instance.
  const auto problems = verify_evaluation(
      soc, table, tests, result.architecture, result.evaluation);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

INSTANTIATE_TEST_SUITE_P(
    RandomSocs, PipelinePropertyTest,
    ::testing::Values(PipelineCase{3, 4, 300, 2, 101},
                      PipelineCase{8, 8, 800, 2, 202},
                      PipelineCase{12, 16, 1500, 4, 303},
                      PipelineCase{20, 24, 2000, 4, 404},
                      PipelineCase{28, 32, 2500, 8, 505},
                      PipelineCase{40, 48, 3000, 8, 606},
                      PipelineCase{16, 5, 1000, 3, 707},
                      PipelineCase{6, 64, 500, 2, 808}));

// Every evaluator-option combination must verify on random SOCs, not just
// the defaults.
class OptionsMatrixTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptionsMatrixTest, OptimizerOutputVerifiesUnderAllOptions) {
  SynthSocConfig soc_config;
  soc_config.cores = 14;
  soc_config.name = "matrix" + std::to_string(GetParam());
  Rng rng(GetParam());
  const Soc soc = generate_soc(soc_config, rng);
  const TerminalSpace ts(soc);
  auto patterns =
      generate_random_patterns(ts, 900, RandomPatternConfig{}, rng);
  SiTestSet tests = build_si_test_set(patterns, ts, 3, GroupingConfig{});
  assign_si_power(tests, soc, 1, 50);
  std::int64_t max_power = 0;
  for (const auto& g : tests.groups) {
    max_power = std::max(max_power, g.power);
  }

  const int w_max = 12;
  const TestTimeTable table(soc, w_max);
  for (const ArchitectureStyle style :
       {ArchitectureStyle::kTestRail, ArchitectureStyle::kTestBus}) {
    for (const SchedulePick pick :
         {SchedulePick::kLongestFirst, SchedulePick::kInputOrder}) {
      for (const bool interleave : {false, true}) {
        EvaluatorOptions options;
        options.style = style;
        options.pick = pick;
        options.interleave_phases = interleave;
        options.power_budget = max_power * 3 / 2;
        OptimizerConfig config;
        config.evaluator = options;
        const OptimizeResult result =
            optimize_tam(soc, table, tests, w_max, config);
        const auto problems =
            verify_evaluation(soc, table, tests, result.architecture,
                              result.evaluation, options);
        EXPECT_TRUE(problems.empty())
            << "style=" << static_cast<int>(style)
            << " pick=" << static_cast<int>(pick)
            << " interleave=" << interleave << ": " << problems.front();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptionsMatrixTest,
                         ::testing::Values(31, 32, 33));

// Exact-reference properties on synthetic SOCs of at most eight cores,
// with SI tests built by the pipeline (SiWorkload::prepare), widths 1..8
// on one table at the largest width:
//  - the exhaustive optimum is never worse than Algorithm 2 (it searches
//    every architecture under the same evaluation);
//  - the exhaustive optimum is non-increasing in W: one more wire on any
//    rail of the W optimum never lengthens the test. Algorithm 2 is not
//    held to this; it breaks it in some table cells (ROADMAP item 1);
//  - relabelling the cores (the modules in another order, every SI group
//    mapped along) leaves the exhaustive optimum unchanged, and Algorithm
//    2's result on the relabelled SOC verifies.
struct ExactCase {
  int cores;
  int parts;
  std::uint64_t seed;
};

class ExhaustivePropertyTest : public ::testing::TestWithParam<ExactCase> {};

TEST_P(ExhaustivePropertyTest, ExactOptimumBoundsAlgorithm2AndWidth) {
  const ExactCase c = GetParam();
  constexpr int kMaxWidth = 8;
  SynthSocConfig soc_config;
  soc_config.cores = c.cores;
  soc_config.name = "exact" + std::to_string(c.seed);
  Rng rng(c.seed);
  const Soc soc = generate_soc(soc_config, rng);
  SiWorkloadConfig config;
  config.pattern_count = 400;
  config.groupings = {c.parts};
  config.seed = c.seed;
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const SiTestSet& tests = workload.tests(c.parts);
  const TestTimeTable table(soc, kMaxWidth);

  // The relabelled instance: module k of `relabelled` is module
  // order[k] of `soc`, so core order[k] becomes core k.
  std::vector<int> order(static_cast<std::size_t>(soc.core_count()));
  std::iota(order.begin(), order.end(), 0);
  Rng shuffle(c.seed ^ 0x5a5aULL);
  shuffle.shuffle(order);
  Soc relabelled = soc;
  std::vector<int> label(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    relabelled.modules[k] = soc.modules[static_cast<std::size_t>(order[k])];
    label[static_cast<std::size_t>(order[k])] = static_cast<int>(k);
  }
  SiTestSet relabelled_tests = tests;
  for (SiTestGroup& group : relabelled_tests.groups) {
    for (int& core : group.cores) core = label[static_cast<std::size_t>(core)];
    std::sort(group.cores.begin(), group.cores.end());
  }
  const TestTimeTable relabelled_table(relabelled, kMaxWidth);

  std::int64_t previous = std::numeric_limits<std::int64_t>::max();
  for (int w = 1; w <= kMaxWidth; ++w) {
    const OptimizeResult exact = exhaustive_optimum(soc, table, tests, w);
    const OptimizeResult heuristic = optimize_tam(soc, table, tests, w);
    EXPECT_LE(exact.evaluation.t_soc, heuristic.evaluation.t_soc)
        << "W=" << w;
    EXPECT_LE(exact.evaluation.t_soc, previous) << "W=" << w;
    previous = exact.evaluation.t_soc;

    const OptimizeResult exact_relabelled = exhaustive_optimum(
        relabelled, relabelled_table, relabelled_tests, w);
    EXPECT_EQ(exact_relabelled.evaluation.t_soc, exact.evaluation.t_soc)
        << "W=" << w;
    const OptimizeResult heuristic_relabelled =
        optimize_tam(relabelled, relabelled_table, relabelled_tests, w);
    const auto problems = verify_evaluation(
        relabelled, relabelled_table, relabelled_tests,
        heuristic_relabelled.architecture, heuristic_relabelled.evaluation);
    EXPECT_TRUE(problems.empty()) << "W=" << w << ": " << problems.front();
  }
}

INSTANTIATE_TEST_SUITE_P(SmallSocs, ExhaustivePropertyTest,
                         ::testing::Values(ExactCase{4, 2, 901},
                                           ExactCase{5, 2, 902},
                                           ExactCase{6, 3, 903},
                                           ExactCase{7, 2, 904},
                                           ExactCase{8, 4, 905}));

}  // namespace
}  // namespace sitam
