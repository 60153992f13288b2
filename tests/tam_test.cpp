// Tests for src/tam: architecture validation, the evaluator's timing model
// (Example 1 of the paper), Algorithm 1 scheduling semantics, and the
// Algorithm 2 optimizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "sitest/group.h"
#include "soc/benchmarks.h"
#include "tam/architecture.h"
#include "tam/evaluator.h"
#include "tam/optimizer.h"
#include "util/rng.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

// Sound InTest work lower bound: every pattern of core c must stream at
// least (flops + max(wic, woc)) bits through the rail (the shorter cell
// chain overlaps with the longer one under pipelining).
std::int64_t pipelined_volume(const Soc& soc) {
  std::int64_t sum = 0;
  for (const Module& m : soc.modules) {
    sum += (m.scan_flops() + std::max(m.wic(), m.woc())) * m.patterns;
  }
  return sum;
}

TestRail rail(std::vector<int> cores, int width) {
  TestRail r;
  r.cores = std::move(cores);
  r.width = width;
  return r;
}

SiTestGroup group(std::string label, std::vector<int> cores,
                  std::int64_t patterns) {
  SiTestGroup g;
  g.label = std::move(label);
  g.cores = std::move(cores);
  g.patterns = patterns;
  g.raw_patterns = patterns;
  return g;
}

// ---------------------------------------------------------------------------
// TamArchitecture
// ---------------------------------------------------------------------------

TEST(Architecture, TotalsAndMaps) {
  TamArchitecture arch;
  arch.rails = {rail({0, 2}, 3), rail({1}, 2)};
  EXPECT_EQ(arch.total_width(), 5);
  EXPECT_EQ(arch.core_count(), 3);
  const auto map = arch.rail_of_core(4);
  EXPECT_EQ(map, (std::vector<int>{0, 1, 0, -1}));
}

TEST(Architecture, ValidateAcceptsPartition) {
  TamArchitecture arch;
  arch.rails = {rail({0, 2}, 1), rail({1}, 4)};
  EXPECT_NO_THROW(arch.validate(3));
}

TEST(Architecture, ValidateRejectsProblems) {
  TamArchitecture arch;
  arch.rails = {rail({0, 1}, 0)};  // width 0
  EXPECT_THROW(arch.validate(2), std::invalid_argument);
  arch.rails = {rail({0}, 1)};  // core 1 missing
  EXPECT_THROW(arch.validate(2), std::invalid_argument);
  arch.rails = {rail({0, 1}, 1), rail({1}, 1)};  // duplicate core
  EXPECT_THROW(arch.validate(2), std::invalid_argument);
  arch.rails = {rail({1, 0}, 1)};  // unsorted
  EXPECT_THROW(arch.validate(2), std::invalid_argument);
  arch.rails = {rail({}, 1), rail({0, 1}, 1)};  // empty rail
  EXPECT_THROW(arch.validate(2), std::invalid_argument);
  arch.rails = {rail({0, 1, 5}, 1)};  // out of range
  EXPECT_THROW(arch.validate(2), std::invalid_argument);
}

TEST(Architecture, Describe) {
  TamArchitecture arch;
  arch.rails = {rail({0, 3}, 4), rail({1, 2}, 2)};
  EXPECT_EQ(arch.describe(), "{0,3|w=4} {1,2|w=2}");
}

// ---------------------------------------------------------------------------
// Evaluator fixture on mini5.
// ---------------------------------------------------------------------------

class EvaluatorTest : public ::testing::Test {
 protected:
  EvaluatorTest() : table_(soc_, 8) {}

  // Expected SI busy time of `cores` on one rail of `width`.
  std::int64_t rail_si_time(const std::vector<int>& cores, int width,
                            std::int64_t patterns) const {
    std::int64_t shift = 0;
    for (const int c : cores) {
      shift += si_woc_shift(soc_.modules[static_cast<std::size_t>(c)], width);
    }
    return (patterns + 1) * shift + kSiApplyCycles * patterns;
  }

  Soc soc_ = load_benchmark("mini5");
  TestTimeTable table_;
};

TEST_F(EvaluatorTest, InTestTimeIsMaxOfRailSums) {
  TamArchitecture arch;
  arch.rails = {rail({0, 1}, 2), rail({2, 3, 4}, 3)};
  SiTestSet no_tests;
  const TamEvaluator evaluator(soc_, table_, no_tests);
  const Evaluation ev = evaluator.evaluate(arch);

  const std::int64_t rail0 = table_.intest(0, 2) + table_.intest(1, 2);
  const std::int64_t rail1 =
      table_.intest(2, 3) + table_.intest(3, 3) + table_.intest(4, 3);
  EXPECT_EQ(ev.rails[0].time_in, rail0);
  EXPECT_EQ(ev.rails[1].time_in, rail1);
  EXPECT_EQ(ev.t_in, std::max(rail0, rail1));
  EXPECT_EQ(ev.t_si, 0);
  EXPECT_EQ(ev.t_soc, ev.t_in);
}

TEST_F(EvaluatorTest, InTestSlotsAreContiguousPerRail) {
  TamArchitecture arch;
  arch.rails = {rail({0, 1}, 2), rail({2, 3, 4}, 3)};
  SiTestSet no_tests;
  const TamEvaluator evaluator(soc_, table_, no_tests);
  const Evaluation ev = evaluator.evaluate(arch);

  ASSERT_EQ(ev.intest.size(), 5u);
  std::vector<std::int64_t> cursor(arch.rails.size(), 0);
  for (const InTestSlot& slot : ev.intest) {
    EXPECT_EQ(slot.begin, cursor[static_cast<std::size_t>(slot.rail)]);
    EXPECT_EQ(slot.end - slot.begin,
              table_.intest(slot.core,
                            arch.rails[static_cast<std::size_t>(slot.rail)]
                                .width));
    cursor[static_cast<std::size_t>(slot.rail)] = slot.end;
  }
  for (std::size_t r = 0; r < arch.rails.size(); ++r) {
    EXPECT_EQ(cursor[r], ev.rails[r].time_in);
  }
}

TEST_F(EvaluatorTest, Example1Fig3aArithmetic) {
  // Fig. 3(a): TAM1 = {core1, core2}, TAM2 = {core3, core4},
  // TAM3 = {core5}. SI1 involves all cores, so
  //   T_si1 = max(T1(si1), T2(si1), T3(si1))
  // with each rail's time being the *sum* of its involved cores' times.
  TamArchitecture arch;
  arch.rails = {rail({0, 1}, 2), rail({2, 3}, 2), rail({4}, 1)};
  SiTestSet tests;
  tests.groups = {group("si1", {0, 1, 2, 3, 4}, 40)};
  const TamEvaluator evaluator(soc_, table_, tests);
  const auto map = arch.rail_of_core(soc_.core_count());

  int btn = -1;
  const std::int64_t t =
      evaluator.si_group_time(arch, tests.groups[0], map, &btn);
  const std::int64_t t1 = rail_si_time({0, 1}, 2, 40);
  const std::int64_t t2 = rail_si_time({2, 3}, 2, 40);
  const std::int64_t t3 = rail_si_time({4}, 1, 40);
  EXPECT_EQ(t, std::max({t1, t2, t3}));
  // mini5 wocs: {10,8} vs {12,14} vs {6}: rail with cores 2,3 dominates.
  EXPECT_EQ(btn, 1);
}

TEST_F(EvaluatorTest, Example1DifferentArchitecturesDifferentSiTimes) {
  // The same SI test on the same total width but different TAM designs
  // has different testing time — the paper's core observation.
  SiTestSet tests;
  tests.groups = {group("si1", {0, 1, 2, 3, 4}, 40)};
  const TamEvaluator evaluator(soc_, table_, tests);

  TamArchitecture a;  // Fig. 3(a)-style: three rails
  a.rails = {rail({0, 1}, 2), rail({2, 3}, 2), rail({4}, 1)};
  TamArchitecture b;  // Fig. 3(b)-style: two rails, same total width
  b.rails = {rail({0, 3, 4}, 3), rail({1, 2}, 2)};

  const std::int64_t ta = evaluator.evaluate(a).t_si;
  const std::int64_t tb = evaluator.evaluate(b).t_si;
  EXPECT_NE(ta, tb);
}

TEST_F(EvaluatorTest, PerRailSiBusyTimeAccumulatesAcrossGroups) {
  // Fig. 4 data structure: time_si(r) sums the rail's own busy time over
  // all SI tests touching it (the TAM3 example in §4.1).
  TamArchitecture arch;
  arch.rails = {rail({0, 1}, 2), rail({2, 3}, 2), rail({4}, 1)};
  SiTestSet tests;
  tests.groups = {group("si1", {0, 1, 2, 3, 4}, 40),
                  group("si2", {0, 3, 4}, 25), group("si3", {1, 2}, 30)};
  const TamEvaluator evaluator(soc_, table_, tests);
  const Evaluation ev = evaluator.evaluate(arch);

  const std::int64_t expected_tam3 =
      rail_si_time({4}, 1, 40) + rail_si_time({4}, 1, 25);
  EXPECT_EQ(ev.rails[2].time_si, expected_tam3);
  EXPECT_EQ(ev.rails[2].time_used,
            ev.rails[2].time_in + ev.rails[2].time_si);
}

TEST_F(EvaluatorTest, ScheduleNeverOverlapsOnARail) {
  TamArchitecture arch;
  arch.rails = {rail({0, 1}, 2), rail({2, 3}, 2), rail({4}, 1)};
  SiTestSet tests;
  tests.groups = {group("si1", {0, 1, 2, 3, 4}, 40),
                  group("si2", {0, 3, 4}, 25), group("si3", {1, 2}, 30)};
  const TamEvaluator evaluator(soc_, table_, tests);
  const Evaluation ev = evaluator.evaluate(arch);

  ASSERT_EQ(ev.schedule.items.size(), 3u);
  for (std::size_t i = 0; i < ev.schedule.items.size(); ++i) {
    for (std::size_t j = i + 1; j < ev.schedule.items.size(); ++j) {
      const auto& a = ev.schedule.items[i];
      const auto& b = ev.schedule.items[j];
      const bool share_rail = std::any_of(
          a.rails.begin(), a.rails.end(), [&](int r) {
            return std::find(b.rails.begin(), b.rails.end(), r) !=
                   b.rails.end();
          });
      const bool overlap = a.begin < b.end && b.begin < a.end;
      if (share_rail) {
        EXPECT_FALSE(overlap) << a.group << " vs " << b.group;
      }
    }
  }
}

TEST_F(EvaluatorTest, DisjointSiTestsRunInParallel) {
  TamArchitecture arch;
  arch.rails = {rail({0, 1}, 2), rail({2, 3}, 2), rail({4}, 1)};
  SiTestSet tests;
  // si2 uses rails 0,2; si3 uses rail 1 only: they can overlap.
  tests.groups = {group("si2", {0, 4}, 25), group("si3", {2, 3}, 30)};
  const TamEvaluator evaluator(soc_, table_, tests);
  const Evaluation ev = evaluator.evaluate(arch);
  const std::int64_t serial =
      ev.schedule.items[0].duration + ev.schedule.items[1].duration;
  EXPECT_LT(ev.t_si, serial);
  EXPECT_EQ(ev.t_si,
            std::max(ev.schedule.items[0].duration,
                     ev.schedule.items[1].duration));
}

TEST_F(EvaluatorTest, MakespanIsMaxEnd) {
  TamArchitecture arch;
  arch.rails = {rail({0, 1}, 2), rail({2, 3}, 2), rail({4}, 1)};
  SiTestSet tests;
  tests.groups = {group("si1", {0, 1, 2, 3, 4}, 40),
                  group("si2", {0, 3, 4}, 25), group("si3", {1, 2}, 30)};
  const TamEvaluator evaluator(soc_, table_, tests);
  const Evaluation ev = evaluator.evaluate(arch);
  std::int64_t max_end = 0;
  for (const auto& item : ev.schedule.items) {
    EXPECT_EQ(item.end, item.begin + item.duration);
    max_end = std::max(max_end, item.end);
  }
  EXPECT_EQ(ev.schedule.makespan, max_end);
  EXPECT_EQ(ev.t_si, max_end);
  EXPECT_EQ(ev.t_soc, ev.t_in + ev.t_si);
}

TEST_F(EvaluatorTest, ConflictingTestsSerialize) {
  TamArchitecture arch;
  arch.rails = {rail({0, 1, 2, 3, 4}, 4)};
  SiTestSet tests;
  tests.groups = {group("a", {0}, 10), group("b", {1}, 10)};
  const TamEvaluator evaluator(soc_, table_, tests);
  const Evaluation ev = evaluator.evaluate(arch);
  // Both tests need the single rail: strictly serial.
  EXPECT_EQ(ev.t_si, ev.schedule.items[0].duration +
                         ev.schedule.items[1].duration);
}

TEST_F(EvaluatorTest, EmptyGroupsAreSkipped) {
  TamArchitecture arch;
  arch.rails = {rail({0, 1, 2, 3, 4}, 4)};
  SiTestSet tests;
  tests.groups = {group("empty", {0, 1}, 0), group("real", {2}, 5)};
  const TamEvaluator evaluator(soc_, table_, tests);
  const Evaluation ev = evaluator.evaluate(arch);
  EXPECT_EQ(ev.schedule.items.size(), 1u);
}

TEST_F(EvaluatorTest, RejectsMismatchedTable) {
  const Soc other = load_benchmark("d695");
  const TestTimeTable other_table(other, 4);
  SiTestSet no_tests;
  EXPECT_THROW(TamEvaluator(soc_, other_table, no_tests),
               std::invalid_argument);
}

TEST_F(EvaluatorTest, RejectsGroupWithForeignCore) {
  SiTestSet tests;
  tests.groups = {group("bad", {99}, 5)};
  EXPECT_THROW(TamEvaluator(soc_, table_, tests), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

class OptimizerTest : public ::testing::Test {
 protected:
  SiTestSet tests() const {
    SiTestSet t;
    t.groups = {group("si1", {0, 1, 2, 3, 4}, 40),
                group("si2", {0, 3, 4}, 25), group("si3", {1, 2}, 30)};
    return t;
  }
  Soc soc_ = load_benchmark("mini5");
};

TEST_F(OptimizerTest, PreservesTotalWidthAndValidity) {
  const SiTestSet t = tests();
  for (const int w : {1, 2, 3, 5, 8, 12}) {
    const TestTimeTable table(soc_, w);
    const OptimizeResult result = optimize_tam(soc_, table, t, w);
    EXPECT_EQ(result.architecture.total_width(), w) << "w=" << w;
    EXPECT_NO_THROW(result.architecture.validate(soc_.core_count()));
    EXPECT_EQ(result.evaluation.t_soc,
              result.evaluation.t_in + result.evaluation.t_si);
  }
}

TEST_F(OptimizerTest, WidthOneMeansOneRail) {
  const SiTestSet t = tests();
  const TestTimeTable table(soc_, 1);
  const OptimizeResult result = optimize_tam(soc_, table, t, 1);
  ASSERT_EQ(result.architecture.rails.size(), 1u);
  EXPECT_EQ(result.architecture.rails[0].width, 1);
  EXPECT_EQ(static_cast<int>(result.architecture.rails[0].cores.size()),
            soc_.core_count());
}

TEST_F(OptimizerTest, Deterministic) {
  const SiTestSet t = tests();
  const TestTimeTable table(soc_, 6);
  const OptimizeResult a = optimize_tam(soc_, table, t, 6);
  const OptimizeResult b = optimize_tam(soc_, table, t, 6);
  EXPECT_EQ(a.evaluation.t_soc, b.evaluation.t_soc);
  EXPECT_EQ(a.architecture.describe(), b.architecture.describe());
}

TEST_F(OptimizerTest, MoreWiresNeverHurtMuch) {
  // Heuristic, so not strictly monotone, but a 4x wider TAM must win big.
  const SiTestSet t = tests();
  const TestTimeTable table2(soc_, 2);
  const TestTimeTable table8(soc_, 8);
  const auto narrow = optimize_tam(soc_, table2, t, 2);
  const auto wide = optimize_tam(soc_, table8, t, 8);
  EXPECT_LT(wide.evaluation.t_soc, narrow.evaluation.t_soc);
}

TEST_F(OptimizerTest, InTestVolumeLowerBoundHolds) {
  const SiTestSet t = tests();
  for (const int w : {2, 4, 8}) {
    const TestTimeTable table(soc_, w);
    const OptimizeResult result = optimize_tam(soc_, table, t, w);
    // Work conservation: W wires cannot shift the SOC's pipelined InTest
    // volume faster than volume / W.
    EXPECT_GE(result.evaluation.t_in * w, pipelined_volume(soc_));
  }
}

TEST_F(OptimizerTest, BeatsOrMatchesNaiveArchitectures) {
  const SiTestSet t = tests();
  const int w = 5;
  const TestTimeTable table(soc_, w);
  const TamEvaluator evaluator(soc_, table, t);
  const OptimizeResult result = optimize_tam(soc_, table, t, w);
  // One-core-per-rail with 1 wire each.
  TamArchitecture naive;
  naive.rails = {rail({0}, 1), rail({1}, 1), rail({2}, 1), rail({3}, 1),
                 rail({4}, 1)};
  EXPECT_LE(result.evaluation.t_soc, evaluator.evaluate(naive).t_soc);
  // Single fat rail.
  TamArchitecture fat;
  fat.rails = {rail({0, 1, 2, 3, 4}, w)};
  EXPECT_LE(result.evaluation.t_soc, evaluator.evaluate(fat).t_soc);
}

TEST_F(OptimizerTest, EmptySiSetReducesToInTestOptimization) {
  SiTestSet none;
  const TestTimeTable table(soc_, 4);
  const OptimizeResult result = optimize_tam(soc_, table, none, 4);
  EXPECT_EQ(result.evaluation.t_si, 0);
  EXPECT_EQ(result.evaluation.t_soc, result.evaluation.t_in);
}

TEST_F(OptimizerTest, IntestOnlyBaselineScoresAgainstRealTests) {
  const SiTestSet t = tests();
  const TestTimeTable table(soc_, 4);
  const OptimizeResult baseline = optimize_intest_only(soc_, table, t, 4);
  // The baseline evaluation includes the SI time on the fixed architecture.
  EXPECT_GT(baseline.evaluation.t_si, 0);
  EXPECT_EQ(baseline.evaluation.t_soc,
            baseline.evaluation.t_in + baseline.evaluation.t_si);
  // And the SI-aware optimizer should not be (much) worse; allow heuristic
  // slack of 2%.
  const OptimizeResult aware = optimize_tam(soc_, table, t, 4);
  EXPECT_LE(aware.evaluation.t_soc,
            baseline.evaluation.t_soc * 102 / 100);
}

TEST_F(OptimizerTest, RejectsBadInputs) {
  const SiTestSet t = tests();
  const TestTimeTable table(soc_, 4);
  EXPECT_THROW((void)optimize_tam(soc_, table, t, 0), std::invalid_argument);
  Soc empty;
  empty.name = "empty";
  EXPECT_THROW((void)optimize_tam(empty, table, t, 4), std::logic_error);
}

TEST_F(OptimizerTest, ReshuffleToggleStillValid) {
  const SiTestSet t = tests();
  const TestTimeTable table(soc_, 6);
  OptimizerConfig config;
  config.core_reshuffle = false;
  const OptimizeResult result = optimize_tam(soc_, table, t, 6, config);
  EXPECT_NO_THROW(result.architecture.validate(soc_.core_count()));
  OptimizerConfig slow;
  slow.fast_candidate_scan = false;
  const OptimizeResult precise = optimize_tam(soc_, table, t, 6, slow);
  EXPECT_NO_THROW(precise.architecture.validate(soc_.core_count()));
}

// Parameterized sweep over benchmarks and widths: structural invariants of
// the optimizer must hold everywhere.
struct OptCase {
  const char* soc;
  int w_max;
};

class OptimizerPropertyTest : public ::testing::TestWithParam<OptCase> {};

TEST_P(OptimizerPropertyTest, StructuralInvariants) {
  const OptCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TestTimeTable table(soc, param.w_max);
  SiTestSet tests;
  // A simple 2-group SI load touching all cores.
  std::vector<int> first_half;
  std::vector<int> second_half;
  for (int c = 0; c < soc.core_count(); ++c) {
    (c % 2 == 0 ? first_half : second_half).push_back(c);
  }
  tests.groups = {group("even", first_half, 50),
                  group("odd", second_half, 30)};

  const OptimizeResult result =
      optimize_tam(soc, table, tests, param.w_max);
  EXPECT_EQ(result.architecture.total_width(), param.w_max);
  EXPECT_NO_THROW(result.architecture.validate(soc.core_count()));
  EXPECT_GE(result.evaluation.t_in * param.w_max, pipelined_volume(soc));
  EXPECT_GT(result.evaluation.t_si, 0);
  EXPECT_EQ(result.evaluation.t_soc,
            result.evaluation.t_in + result.evaluation.t_si);
  EXPECT_EQ(result.evaluation.schedule.items.size(), 2u);
}

INSTANTIATE_TEST_SUITE_P(
    BenchmarksAndWidths, OptimizerPropertyTest,
    ::testing::Values(OptCase{"mini5", 3}, OptCase{"mini5", 8},
                      OptCase{"d695", 8}, OptCase{"d695", 16},
                      OptCase{"p34392", 16}, OptCase{"p34392", 32},
                      OptCase{"p93791", 16}, OptCase{"p93791", 32},
                      OptCase{"p93791", 64}));

}  // namespace
}  // namespace sitam

namespace sitam {
namespace {

TEST(OptimizerRestarts, NeverWorseThanSinglePass) {
  const Soc soc = load_benchmark("p93791");
  static const SiTestSet kNoTests{};
  for (const int w : {16, 32}) {
    const TestTimeTable table(soc, w);
    OptimizerConfig one;
    one.restarts = 1;
    OptimizerConfig four;
    four.restarts = 4;
    const auto single = optimize_tam(soc, table, kNoTests, w, one);
    const auto multi = optimize_tam(soc, table, kNoTests, w, four);
    EXPECT_LE(multi.evaluation.t_soc, single.evaluation.t_soc) << "w=" << w;
    EXPECT_EQ(multi.architecture.total_width(), w);
    EXPECT_NO_THROW(multi.architecture.validate(soc.core_count()));
  }
}

TEST(OptimizerRestarts, DeterministicForSeed) {
  const Soc soc = load_benchmark("d695");
  static const SiTestSet kNoTests{};
  const TestTimeTable table(soc, 16);
  OptimizerConfig config;
  config.restarts = 4;
  const auto a = optimize_tam(soc, table, kNoTests, 16, config);
  const auto b = optimize_tam(soc, table, kNoTests, 16, config);
  EXPECT_EQ(a.evaluation.t_soc, b.evaluation.t_soc);
  EXPECT_EQ(a.architecture.describe(), b.architecture.describe());
}

TEST(OptimizerStats, CountsEveryEvaluation) {
  // Regression for the evals_ undercount: the optimizer used to count only
  // its t_soc() shortcut, missing the direct eval_.evaluate() calls in
  // run()'s merge stages. Counting is now single-sourced in TamEvaluator,
  // so every call — direct or via t_soc() — lands in stats.evaluations.
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 8);
  static const SiTestSet kNoTests{};
  TamEvaluator evaluator(soc, table, kNoTests);
  TamArchitecture arch;
  arch.rails.resize(1);
  arch.rails[0].cores = {0, 1, 2, 3, 4};
  arch.rails[0].width = 8;
  (void)evaluator.evaluate(arch);
  (void)evaluator.evaluate(arch);
  (void)evaluator.evaluate(arch);
  (void)evaluator.t_soc(arch);
  (void)evaluator.t_soc(arch);
  EXPECT_EQ(evaluator.stats().evaluations, 5);
  EXPECT_EQ(evaluator.stats().cache_misses, 5);  // every call is a full run

  // End-to-end: a full optimizer run reports a consistent, non-zero count.
  // The optimizer scores through the delta path by default, so the
  // accounting invariant includes the delta-hit bucket.
  const OptimizeResult result = optimize_tam(soc, table, kNoTests, 8);
  EXPECT_GT(result.stats.evaluations, 0);
  EXPECT_EQ(result.stats.cache_hits + result.stats.delta_hits +
                result.stats.cache_misses,
            result.stats.evaluations);
  EXPECT_GT(result.stats.delta_hits, 0);
  // The bottom-up stage alone evaluates more architectures than the old
  // t_soc-only counter could ever see for a 5-core SOC (it reported at
  // most a handful); any credible count exceeds the core count.
  EXPECT_GT(result.stats.evaluations, soc.core_count());
}

// The incremental rail-hash cache must agree with the from-scratch
// reference after any helper sequence — this is the invariant the delta
// evaluator's raw-quadruple rail matching rests on. Random walk over the
// exact move mix the optimizers perform: single-core moves between rails,
// width changes (which never touch the cached sums), and rail merges.
TEST(RailHash, IncrementalCacheMatchesReferenceUnderRandomizedMoves) {
  constexpr int kCores = 24;
  Rng rng(0x5117a4);
  TamArchitecture arch;
  arch.rails.resize(4);
  for (int r = 0; r < 4; ++r) {
    arch.rails[static_cast<std::size_t>(r)].width = 1 + r;
    arch.rails[static_cast<std::size_t>(r)].id = r;
  }
  for (int c = 0; c < kCores; ++c) {
    arch.rails[rng.below(arch.rails.size())].insert_core(c);
  }

  const auto check_all = [&arch] {
    for (const TestRail& rail : arch.rails) {
      const RailHash reference = rail_content_hash_reference(rail);
      ASSERT_EQ(rail.content_hash(), reference);
      // The raw sums the delta evaluator matches on must agree too, not
      // just the finalized hash.
      const auto [sum0, sum1] = rail.hash_sums();
      TestRail cold;
      cold.cores = rail.cores;
      cold.width = rail.width;
      const auto [ref0, ref1] = cold.hash_sums();
      ASSERT_EQ(sum0, ref0);
      ASSERT_EQ(sum1, ref1);
    }
  };
  check_all();

  for (int step = 0; step < 400; ++step) {
    const std::uint64_t kind = rng.below(8);
    if (kind < 5) {
      // Move a random core to a random other rail (skipping no-ops and
      // rails it would empty — the optimizers never produce either).
      const std::size_t from = rng.below(arch.rails.size());
      TestRail& src = arch.rails[from];
      if (src.cores.size() < 2) continue;
      const std::size_t to = rng.below(arch.rails.size());
      if (to == from) continue;
      const int core = src.cores[rng.below(src.cores.size())];
      src.erase_core(core);
      arch.rails[to].insert_core(core);
    } else if (kind < 7) {
      arch.rails[rng.below(arch.rails.size())].width =
          1 + static_cast<int>(rng.below(64));
    } else if (arch.rails.size() > 2) {
      // Merge the last rail into a random survivor.
      TestRail victim = std::move(arch.rails.back());
      arch.rails.pop_back();
      arch.rails[rng.below(arch.rails.size())].merge_cores_from(victim);
    }
    check_all();
  }
  arch.validate(kCores);
}

}  // namespace
}  // namespace sitam
