// Tests for the independent schedule verifier: real evaluations verify
// cleanly under every option combination, and seeded corruptions of an
// evaluation are caught with specific messages.
#include <gtest/gtest.h>

#include "pattern/generator.h"
#include "sitest/group.h"
#include "soc/benchmarks.h"
#include "tam/annealing.h"
#include "tam/optimizer.h"
#include "tam/verify.h"
#include "util/rng.h"

namespace sitam {
namespace {

struct Fixture {
  explicit Fixture(const char* soc_name, int w_max)
      : soc(load_benchmark(soc_name)), table(soc, w_max) {
    const TerminalSpace ts(soc);
    Rng rng(61);
    const auto patterns =
        generate_random_patterns(ts, 1500, RandomPatternConfig{}, rng);
    tests = build_si_test_set(patterns, ts, 4, GroupingConfig{});
  }
  Soc soc;
  TestTimeTable table;
  SiTestSet tests;
};

TEST(VerifyEvaluation, RealEvaluationsPassUnderAllOptions) {
  Fixture f("d695", 16);
  assign_si_power(f.tests, f.soc, 1, 100);
  std::int64_t max_power = 0;
  for (const auto& g : f.tests.groups) {
    max_power = std::max(max_power, g.power);
  }

  for (const bool interleave : {false, true}) {
    for (const std::int64_t budget : {std::int64_t{0}, max_power * 2}) {
      EvaluatorOptions options;
      options.interleave_phases = interleave;
      options.power_budget = budget;
      OptimizerConfig config;
      config.evaluator = options;
      const OptimizeResult result =
          optimize_tam(f.soc, f.table, f.tests, 16, config);
      const auto problems =
          verify_evaluation(f.soc, f.table, f.tests, result.architecture,
                            result.evaluation, options);
      EXPECT_TRUE(problems.empty())
          << "interleave=" << interleave << " budget=" << budget << ": "
          << problems.front();
    }
  }
}

TEST(VerifyEvaluation, TestBusStyleVerifies) {
  Fixture f("mini5", 6);
  EvaluatorOptions options;
  options.style = ArchitectureStyle::kTestBus;
  OptimizerConfig config;
  config.evaluator = options;
  const OptimizeResult result =
      optimize_tam(f.soc, f.table, f.tests, 6, config);
  const auto problems = verify_evaluation(
      f.soc, f.table, f.tests, result.architecture, result.evaluation,
      options);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(VerifyEvaluation, AnnealedResultVerifies) {
  Fixture f("mini5", 8);
  AnnealingConfig config;
  config.iterations = 3000;
  const OptimizeResult result =
      optimize_tam_annealing(f.soc, f.table, f.tests, 8, config);
  const auto problems = verify_evaluation(
      f.soc, f.table, f.tests, result.architecture, result.evaluation);
  EXPECT_TRUE(problems.empty()) << problems.front();
}

class CorruptionTest : public ::testing::Test {
 protected:
  CorruptionTest() : fixture_("mini5", 8) {
    result_ = optimize_tam(fixture_.soc, fixture_.table, fixture_.tests, 8);
  }

  std::vector<std::string> verify() const {
    return verify_evaluation(fixture_.soc, fixture_.table, fixture_.tests,
                             result_.architecture, result_.evaluation);
  }

  Fixture fixture_;
  OptimizeResult result_;
};

TEST_F(CorruptionTest, CleanBaseline) {
  EXPECT_TRUE(verify().empty());
}

TEST_F(CorruptionTest, DetectsTamperedTotals) {
  ++result_.evaluation.t_soc;
  const auto problems = verify();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems.back().find("t_soc"), std::string::npos);
}

TEST_F(CorruptionTest, DetectsTamperedDuration) {
  ASSERT_FALSE(result_.evaluation.schedule.items.empty());
  result_.evaluation.schedule.items[0].duration += 5;
  EXPECT_FALSE(verify().empty());
}

TEST_F(CorruptionTest, DetectsShiftedItem) {
  // Shift the second item so it overlaps the first on a shared rail
  // (both exist and share rails in this fixture; if not, the totals
  // check still fires because end != begin + duration is preserved but
  // makespan moves).
  auto& items = result_.evaluation.schedule.items;
  ASSERT_GE(items.size(), 2u);
  items[1].begin = items[0].begin;
  items[1].end = items[1].begin + items[1].duration;
  EXPECT_FALSE(verify().empty());
}

TEST_F(CorruptionTest, DetectsTamperedInTestSlot) {
  ASSERT_FALSE(result_.evaluation.intest.empty());
  ++result_.evaluation.intest[0].end;
  EXPECT_FALSE(verify().empty());
}

TEST_F(CorruptionTest, DetectsDroppedScheduleItem) {
  ASSERT_FALSE(result_.evaluation.schedule.items.empty());
  result_.evaluation.schedule.items.pop_back();
  EXPECT_FALSE(verify().empty());
}

TEST_F(CorruptionTest, DetectsWrongArchitectureWidth) {
  ++result_.architecture.rails[0].width;
  // Width changed => InTest durations and SI shifts disagree.
  EXPECT_FALSE(verify().empty());
}

}  // namespace
}  // namespace sitam
