// Tests for the TAM extension modules: lower bounds, the exhaustive
// reference optimizer (optimality-gap validation), Test Bus vs TestRail
// time models and the Algorithm 1 pick-rule variants.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/context.h"
#include "sitest/group.h"
#include "soc/benchmarks.h"
#include "tam/bounds.h"
#include "tam/evaluator.h"
#include "tam/exhaustive.h"
#include "tam/optimizer.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

SiTestGroup group(std::string label, std::vector<int> cores,
                  std::int64_t patterns) {
  SiTestGroup g;
  g.label = std::move(label);
  g.cores = std::move(cores);
  g.patterns = patterns;
  g.raw_patterns = patterns;
  return g;
}

SiTestSet mini_tests() {
  SiTestSet t;
  t.groups = {group("si1", {0, 1, 2, 3, 4}, 40), group("si2", {0, 3, 4}, 25),
              group("si3", {1, 2}, 30)};
  return t;
}

// ---------------------------------------------------------------------------
// exhaustive_search_space
// ---------------------------------------------------------------------------

TEST(ExhaustiveSearchSpace, ClosedFormValues) {
  // Sum over k of S(n,k) * C(w-1, k-1).
  EXPECT_EQ(exhaustive_search_space(1, 1), 1);
  EXPECT_EQ(exhaustive_search_space(1, 7), 1);
  EXPECT_EQ(exhaustive_search_space(2, 2), 1 * 1 + 1 * 1);  // S(2,1)+S(2,2)
  // n=5, w=5: 1 + 15*4 + 25*6 + 10*4 + 1*1 = 252.
  EXPECT_EQ(exhaustive_search_space(5, 5), 252);
}

TEST(ExhaustiveSearchSpace, GrowsWithWidth) {
  EXPECT_LT(exhaustive_search_space(5, 4), exhaustive_search_space(5, 8));
}

// ---------------------------------------------------------------------------
// Exhaustive optimum vs heuristic
// ---------------------------------------------------------------------------

class ExhaustiveParamTest : public ::testing::TestWithParam<int> {};

TEST_P(ExhaustiveParamTest, HeuristicWithinTolerance) {
  const int w_max = GetParam();
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, w_max);
  const SiTestSet tests = mini_tests();

  const OptimizeResult exact =
      exhaustive_optimum(soc, table, tests, w_max);
  const OptimizeResult heuristic = optimize_tam(soc, table, tests, w_max);

  // The exhaustive result is a true lower bound over architectures (same
  // evaluation model), so the heuristic can never beat it...
  EXPECT_GE(heuristic.evaluation.t_soc, exact.evaluation.t_soc);
  // ...and on these tiny instances it should land within 15%.
  EXPECT_LE(heuristic.evaluation.t_soc,
            exact.evaluation.t_soc * 115 / 100)
      << "w_max=" << w_max;
  // Sanity on the exact result itself.
  EXPECT_EQ(exact.architecture.total_width(), w_max);
  EXPECT_NO_THROW(exact.architecture.validate(soc.core_count()));
}

INSTANTIATE_TEST_SUITE_P(Widths, ExhaustiveParamTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(Exhaustive, RefusesLargeInstances) {
  const Soc soc = load_benchmark("p93791");
  const TestTimeTable table(soc, 8);
  SiTestSet none;
  EXPECT_THROW((void)exhaustive_optimum(soc, table, none, 8),
               std::invalid_argument);
  const Soc mini = load_benchmark("mini5");
  const TestTimeTable mini_table(mini, 32);
  EXPECT_THROW((void)exhaustive_optimum(mini, mini_table, none, 32),
               std::invalid_argument);
}

TEST(Exhaustive, WidthOneHasSingleArchitecture) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 1);
  const SiTestSet tests = mini_tests();
  const OptimizeResult exact = exhaustive_optimum(soc, table, tests, 1);
  ASSERT_EQ(exact.architecture.rails.size(), 1u);
  // And the heuristic trivially matches it.
  const OptimizeResult heuristic = optimize_tam(soc, table, tests, 1);
  EXPECT_EQ(heuristic.evaluation.t_soc, exact.evaluation.t_soc);
}

// ---------------------------------------------------------------------------
// Lower bounds
// ---------------------------------------------------------------------------

class BoundsParamTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundsParamTest, BoundsHoldForExhaustiveOptimum) {
  const int w_max = GetParam();
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, w_max);
  const SiTestSet tests = mini_tests();
  const LowerBounds bounds = lower_bounds(soc, table, tests, w_max);
  const OptimizeResult exact = exhaustive_optimum(soc, table, tests, w_max);
  EXPECT_LE(bounds.t_in, exact.evaluation.t_in);
  EXPECT_LE(bounds.t_si, exact.evaluation.t_si);
  EXPECT_LE(bounds.t_soc(), exact.evaluation.t_soc);
}

INSTANTIATE_TEST_SUITE_P(Widths, BoundsParamTest,
                         ::testing::Values(1, 2, 4, 8));

TEST(Bounds, HoldOnLargeBenchmarks) {
  for (const char* name : {"d695", "p34392", "p93791"}) {
    const Soc soc = load_benchmark(name);
    for (const int w : {8, 32}) {
      const TestTimeTable table(soc, w);
      SiTestSet tests;
      std::vector<int> all;
      for (int c = 0; c < soc.core_count(); ++c) all.push_back(c);
      tests.groups = {group("all", all, 500)};
      const LowerBounds bounds = lower_bounds(soc, table, tests, w);
      const OptimizeResult result = optimize_tam(soc, table, tests, w);
      EXPECT_LE(bounds.t_soc(), result.evaluation.t_soc)
          << name << " w=" << w;
      EXPECT_GT(bounds.t_in, 0);
      EXPECT_GT(bounds.t_si, 0);
    }
  }
}

// Regression: the SI term once charged each group the sum of its cores'
// per-core ceil(WOC / W), which spreading the cores over narrower parallel
// rails rounds below. On this run (`sitam optimize --soc=d695 --wmax=24
// --nr=10000 --seed=2 --parts=1`) the optimizer found T_soc 92 448 while
// that bound claimed 94 213.
TEST(Bounds, HoldWhenNarrowRailsRoundBetterThanOneFullWidthRail) {
  SitamContext context;
  FlowRequest request;
  request.soc = context.intern(load_benchmark("d695"));
  request.workload.pattern_count = 10000;
  request.workload.groupings = {1};
  request.workload.seed = 2;
  request.widths = {24};
  const FlowResult flow = context.run(request);
  EXPECT_EQ(flow.optimize.evaluation.t_soc, 92448);
  EXPECT_LE(flow.lower_bound, flow.optimize.evaluation.t_soc);
  const TestTimeTable table(*request.soc, 24);
  const LowerBounds bounds = lower_bounds(*request.soc, table, flow.tests, 24);
  EXPECT_LE(bounds.t_si, flow.optimize.evaluation.t_si);
  EXPECT_EQ(bounds.t_soc(), flow.lower_bound);
}

TEST(Bounds, WiderTamLowersBounds) {
  const Soc soc = load_benchmark("p93791");
  const TestTimeTable t8(soc, 8);
  const TestTimeTable t64(soc, 64);
  SiTestSet none;
  EXPECT_GT(lower_bounds(soc, t8, none, 8).t_in,
            lower_bounds(soc, t64, none, 64).t_in);
}

TEST(Bounds, EmptySiSetHasZeroSiBound) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 4);
  SiTestSet none;
  EXPECT_EQ(lower_bounds(soc, table, none, 4).t_si, 0);
}

TEST(Bounds, RejectsBadInput) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 4);
  SiTestSet none;
  EXPECT_THROW((void)lower_bounds(soc, table, none, 0),
               std::invalid_argument);
  const Soc other = load_benchmark("d695");
  EXPECT_THROW((void)lower_bounds(other, table, none, 4),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Test Bus vs TestRail
// ---------------------------------------------------------------------------

TEST(ArchitectureStyleModel, TestBusNeverFasterForSi) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 8);
  const SiTestSet tests = mini_tests();

  EvaluatorOptions bus_options;
  bus_options.style = ArchitectureStyle::kTestBus;
  const TamEvaluator rail_eval(soc, table, tests);
  const TamEvaluator bus_eval(soc, table, tests, bus_options);

  TamArchitecture arch;
  arch.rails = {TestRail{{0, 1}, 2, -1}, TestRail{{2, 3}, 2, -1},
                TestRail{{4}, 1, -1}};
  const Evaluation rail = rail_eval.evaluate(arch);
  const Evaluation bus = bus_eval.evaluate(arch);
  EXPECT_EQ(rail.t_in, bus.t_in);  // InTest identical in both styles
  EXPECT_GT(bus.t_si, rail.t_si);  // lost pipelining + mux switches
}

TEST(ArchitectureStyleModel, TestBusArithmeticIsExact) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 8);
  SiTestSet tests;
  tests.groups = {group("s", {0, 1}, 10)};  // wocs 10 and 8 on width 2
  EvaluatorOptions options;
  options.style = ArchitectureStyle::kTestBus;
  const TamEvaluator evaluator(soc, table, tests, options);
  TamArchitecture arch;
  arch.rails = {TestRail{{0, 1}, 2, -1}, TestRail{{2, 3, 4}, 2, -1}};
  const Evaluation ev = evaluator.evaluate(arch);
  // shift = ceil(10/2) + ceil(8/2) = 9; cores = 2; p = 10:
  // T = p*(shift + 4*cores) + shift + 2p = 10*(9+8) + 9 + 20 = 199.
  ASSERT_EQ(ev.schedule.items.size(), 1u);
  EXPECT_EQ(ev.schedule.items[0].duration, 199);
}

TEST(ArchitectureStyleModel, OptimizerAcceptsBusStyle) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 6);
  const SiTestSet tests = mini_tests();
  OptimizerConfig config;
  config.evaluator.style = ArchitectureStyle::kTestBus;
  const OptimizeResult bus = optimize_tam(soc, table, tests, 6, config);
  const OptimizeResult rail = optimize_tam(soc, table, tests, 6);
  EXPECT_NO_THROW(bus.architecture.validate(soc.core_count()));
  // Even after optimizing *for* the bus style, SI costs more than the
  // best TestRail solution.
  EXPECT_GE(bus.evaluation.t_soc, rail.evaluation.t_soc);
}

// ---------------------------------------------------------------------------
// Schedule pick rules
// ---------------------------------------------------------------------------

TEST(SchedulePickRules, AllProduceValidSchedules) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 8);
  const SiTestSet tests = mini_tests();
  TamArchitecture arch;
  arch.rails = {TestRail{{0, 1}, 2, -1}, TestRail{{2, 3}, 2, -1},
                TestRail{{4}, 4, -1}};

  std::int64_t longest_duration = 0;
  for (const SchedulePick pick :
       {SchedulePick::kLongestFirst, SchedulePick::kShortestFirst,
        SchedulePick::kInputOrder}) {
    EvaluatorOptions options;
    options.pick = pick;
    const TamEvaluator evaluator(soc, table, tests, options);
    const Evaluation ev = evaluator.evaluate(arch);
    ASSERT_EQ(ev.schedule.items.size(), 3u);
    for (const SiScheduleItem& item : ev.schedule.items) {
      longest_duration = std::max(longest_duration, item.duration);
    }
    EXPECT_GE(ev.t_si, longest_duration);
    // No rail hosts two overlapping items.
    for (std::size_t i = 0; i < ev.schedule.items.size(); ++i) {
      for (std::size_t j = i + 1; j < ev.schedule.items.size(); ++j) {
        const auto& a = ev.schedule.items[i];
        const auto& b = ev.schedule.items[j];
        const bool share = std::any_of(
            a.rails.begin(), a.rails.end(), [&](int r) {
              return std::find(b.rails.begin(), b.rails.end(), r) !=
                     b.rails.end();
            });
        if (share) {
          EXPECT_FALSE(a.begin < b.end && b.begin < a.end);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Phase interleaving (extension)
// ---------------------------------------------------------------------------

TEST(InterleavePhases, SiStartsAfterInvolvedRailsOnly) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 8);
  // One SI test involving only rail 1 (cores 2,3); rail 0 has a much
  // longer InTest, so the SI test should start before global T_in.
  SiTestSet tests;
  tests.groups = {group("s", {2, 3}, 20)};
  TamArchitecture arch;
  arch.rails = {TestRail{{0, 1, 4}, 1, -1}, TestRail{{2, 3}, 7, -1}};

  EvaluatorOptions options;
  options.interleave_phases = true;
  const TamEvaluator evaluator(soc, table, tests, options);
  const Evaluation ev = evaluator.evaluate(arch);

  ASSERT_EQ(ev.schedule.items.size(), 1u);
  const SiScheduleItem& item = ev.schedule.items[0];
  // Starts exactly when rail 1's InTest finishes (it is released and
  // nothing else competes)...
  EXPECT_EQ(item.begin, ev.rails[1].time_in);
  // ...which is well before the global InTest makespan.
  EXPECT_LT(item.begin, ev.t_in);
  // Never overlapping the involved rail's InTest.
  EXPECT_GE(item.begin, ev.rails[1].time_in);
  EXPECT_EQ(ev.t_soc, std::max(ev.t_in, item.end));
  EXPECT_EQ(ev.t_si, ev.t_soc - ev.t_in);
}

TEST(InterleavePhases, NeverWorseThanPhaseSeparated) {
  const Soc soc = load_benchmark("d695");
  const TestTimeTable table(soc, 16);
  SiTestSet tests;
  tests.groups = {group("a", {0, 1, 2}, 120), group("b", {3, 4, 5}, 90),
                  group("c", {6, 7, 8, 9}, 150)};
  TamArchitecture arch;
  arch.rails = {TestRail{{0, 1, 2}, 5, -1}, TestRail{{3, 4, 5}, 5, -1},
                TestRail{{6, 7, 8, 9}, 6, -1}};

  const TamEvaluator separated(soc, table, tests);
  EvaluatorOptions options;
  options.interleave_phases = true;
  const TamEvaluator interleaved(soc, table, tests, options);
  const Evaluation sep = separated.evaluate(arch);
  const Evaluation inter = interleaved.evaluate(arch);
  EXPECT_LE(inter.t_soc, sep.t_soc);
  // Per-rail disjointness: every SI item starts at or after the InTest end
  // of every rail it occupies.
  for (const SiScheduleItem& item : inter.schedule.items) {
    for (const int rail : item.rails) {
      EXPECT_GE(item.begin,
                inter.rails[static_cast<std::size_t>(rail)].time_in);
    }
  }
}

TEST(InterleavePhases, RescoringAFixedArchitectureNeverHurts) {
  // The guarantee is per-architecture: the interleaved schedule of any
  // fixed design is never longer than its phase-separated one. (The
  // *optimizer* under the relaxed objective may land in different local
  // optima, so no such guarantee holds across separate searches.)
  const Soc soc = load_benchmark("d695");
  const TestTimeTable table(soc, 16);
  SiTestSet tests;
  tests.groups = {group("a", {0, 1, 2, 3, 4}, 200),
                  group("b", {5, 6, 7, 8, 9}, 200)};
  const auto sep = optimize_tam(soc, table, tests, 16);

  EvaluatorOptions options;
  options.interleave_phases = true;
  const TamEvaluator interleaved(soc, table, tests, options);
  EXPECT_LE(interleaved.evaluate(sep.architecture).t_soc,
            sep.evaluation.t_soc);

  // And the interleaved optimizer still produces a valid design.
  OptimizerConfig config;
  config.evaluator.interleave_phases = true;
  const auto inter = optimize_tam(soc, table, tests, 16, config);
  EXPECT_NO_THROW(inter.architecture.validate(soc.core_count()));
}

// ---------------------------------------------------------------------------
// Power-constrained scheduling
// ---------------------------------------------------------------------------

TEST(PowerConstrainedSchedule, BudgetSerializesParallelTests) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 8);
  // Two SI tests on disjoint rails: unconstrained they overlap; with a
  // budget below their combined power they must serialize.
  SiTestSet tests;
  tests.groups = {group("a", {0, 1}, 25), group("b", {2, 3}, 25)};
  tests.groups[0].power = 60;
  tests.groups[1].power = 60;
  TamArchitecture arch;
  arch.rails = {TestRail{{0, 1}, 2, -1}, TestRail{{2, 3}, 2, -1},
                TestRail{{4}, 4, -1}};

  const TamEvaluator unconstrained(soc, table, tests);
  const Evaluation free_ev = unconstrained.evaluate(arch);

  EvaluatorOptions options;
  options.power_budget = 100;  // < 60 + 60
  const TamEvaluator constrained(soc, table, tests, options);
  const Evaluation tight_ev = constrained.evaluate(arch);

  EXPECT_LT(free_ev.t_si, tight_ev.t_si);
  EXPECT_EQ(tight_ev.t_si, tight_ev.schedule.items[0].duration +
                               tight_ev.schedule.items[1].duration);
}

TEST(PowerConstrainedSchedule, LooseBudgetChangesNothing) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 8);
  SiTestSet tests = mini_tests();
  assign_si_power(tests, soc);
  TamArchitecture arch;
  arch.rails = {TestRail{{0, 1}, 2, -1}, TestRail{{2, 3}, 2, -1},
                TestRail{{4}, 4, -1}};
  const TamEvaluator unconstrained(soc, table, tests);
  EvaluatorOptions options;
  options.power_budget = 1 << 30;
  const TamEvaluator loose(soc, table, tests, options);
  EXPECT_EQ(unconstrained.evaluate(arch).t_si, loose.evaluate(arch).t_si);
}

TEST(PowerConstrainedSchedule, RunningPowerNeverExceedsBudget) {
  const Soc soc = load_benchmark("p93791");
  const TestTimeTable table(soc, 32);
  SiTestSet tests;
  // Eight single-core tests so several could run in parallel.
  for (int c = 0; c < 8; ++c) {
    tests.groups.push_back(group('t' + std::to_string(c), {c}, 40 + c));
  }
  assign_si_power(tests, soc);
  std::int64_t max_single = 0;
  for (const auto& g : tests.groups) max_single = std::max(max_single, g.power);
  const std::int64_t budget = max_single * 2;  // allows limited overlap

  EvaluatorOptions options;
  options.power_budget = budget;
  const TamEvaluator evaluator(soc, table, tests, options);
  TamArchitecture arch;
  arch.rails.resize(8);
  for (int c = 0; c < soc.core_count(); ++c) {
    arch.rails[static_cast<std::size_t>(c % 8)].cores.push_back(c);
  }
  for (auto& rail : arch.rails) rail.width = 4;
  const Evaluation ev = evaluator.evaluate(arch);

  // Replay the schedule and verify the power invariant at every start.
  for (const SiScheduleItem& item : ev.schedule.items) {
    std::int64_t concurrent = 0;
    for (const SiScheduleItem& other : ev.schedule.items) {
      if (other.begin <= item.begin && item.begin < other.end) {
        concurrent +=
            tests.groups[static_cast<std::size_t>(other.group)].power;
      }
    }
    EXPECT_LE(concurrent, budget);
  }
}

TEST(PowerConstrainedSchedule, OverBudgetGroupIsRejected) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 8);
  SiTestSet tests = mini_tests();
  assign_si_power(tests, soc);
  EvaluatorOptions options;
  options.power_budget = 1;  // below any group's own power
  EXPECT_THROW(TamEvaluator(soc, table, tests, options),
               std::invalid_argument);
}

TEST(AssignSiPower, SumsBoundaryCells) {
  const Soc soc = load_benchmark("mini5");
  SiTestSet tests;
  tests.groups = {group("g", {0, 2}, 10)};
  assign_si_power(tests, soc, 3);
  const std::int64_t cells = soc.modules[0].boundary_cells() +
                             soc.modules[2].boundary_cells();
  EXPECT_EQ(tests.groups[0].power, 3 * cells);
}

TEST(AssignSiPower, RejectsBadInput) {
  const Soc soc = load_benchmark("mini5");
  SiTestSet tests;
  tests.groups = {group("g", {99}, 10)};
  EXPECT_THROW(assign_si_power(tests, soc), std::invalid_argument);
  SiTestSet ok;
  ok.groups = {group("g", {0}, 10)};
  EXPECT_THROW(assign_si_power(ok, soc, -1), std::invalid_argument);
}

TEST(PowerConstrainedSchedule, OptimizerHonorsBudget) {
  const Soc soc = load_benchmark("d695");
  const TestTimeTable table(soc, 16);
  SiTestSet tests;
  for (int c = 0; c < 6; ++c) {
    tests.groups.push_back(group('t' + std::to_string(c), {c}, 60));
  }
  assign_si_power(tests, soc);
  std::int64_t max_single = 0;
  for (const auto& g : tests.groups) max_single = std::max(max_single, g.power);

  OptimizerConfig config;
  config.evaluator.power_budget = max_single;
  const OptimizeResult result = optimize_tam(soc, table, tests, 16, config);
  EXPECT_NO_THROW(result.architecture.validate(soc.core_count()));
  // Replay: concurrent power never exceeds the budget, and the constrained
  // schedule is no faster than the unconstrained one.
  for (const auto& item : result.evaluation.schedule.items) {
    std::int64_t concurrent = 0;
    for (const auto& other : result.evaluation.schedule.items) {
      if (other.begin <= item.begin && item.begin < other.end) {
        concurrent +=
            tests.groups[static_cast<std::size_t>(other.group)].power;
      }
    }
    EXPECT_LE(concurrent, max_single);
  }
  const TamEvaluator unconstrained(soc, table, tests);
  EXPECT_GE(result.evaluation.t_si,
            unconstrained.evaluate(result.architecture).t_si);
}

TEST(SchedulePickRules, InputOrderFollowsTestSetOrder) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 8);
  SiTestSet tests;
  // Two conflicting tests (same cores): input order must schedule group 0
  // first even though it is shorter.
  tests.groups = {group("short", {0, 1}, 5), group("long", {0, 1}, 50)};
  EvaluatorOptions options;
  options.pick = SchedulePick::kInputOrder;
  TamArchitecture arch;
  arch.rails = {TestRail{{0, 1, 2, 3, 4}, 8, -1}};
  const TamEvaluator evaluator(soc, table, tests, options);
  const Evaluation ev = evaluator.evaluate(arch);
  ASSERT_EQ(ev.schedule.items.size(), 2u);
  EXPECT_EQ(ev.schedule.items[0].group, 0);
  EXPECT_EQ(ev.schedule.items[0].begin, 0);
}

}  // namespace
}  // namespace sitam
