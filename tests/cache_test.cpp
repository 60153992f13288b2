// Tests for the workload config hash that keys SitamContext's caches, and
// for the evaluator's counters.
#include <gtest/gtest.h>

#include "core/flow.h"
#include "soc/benchmarks.h"
#include "tam/delta.h"
#include "tam/evaluator.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

TEST(WorkloadConfigHash, DependsOnParameters) {
  const Soc soc = load_benchmark("mini5");
  const Soc other = load_benchmark("d695");
  SiWorkloadConfig base;
  base.pattern_count = 300;
  base.groupings = {1, 2};
  base.seed = 77;
  const std::uint64_t key = workload_config_hash(soc, base);

  SiWorkloadConfig different_seed = base;
  different_seed.seed = 78;
  EXPECT_NE(workload_config_hash(soc, different_seed), key);

  SiWorkloadConfig different_count = base;
  different_count.pattern_count = 301;
  EXPECT_NE(workload_config_hash(soc, different_count), key);

  SiWorkloadConfig different_window = base;
  different_window.patterns.locality_window += 1;
  EXPECT_NE(workload_config_hash(soc, different_window), key);

  SiWorkloadConfig different_groupings = base;
  different_groupings.groupings = {1, 4};
  EXPECT_NE(workload_config_hash(soc, different_groupings), key);

  EXPECT_NE(workload_config_hash(other, base), key);
}

// SitamContext keys its workload tier and its request keys by these
// hashes; the values are pinned so a change to the mixing shows here.
TEST(WorkloadConfigHash, PinnedForAFixedD695Config) {
  const Soc soc = load_benchmark("d695");
  EXPECT_EQ(soc_structure_hash(soc), 0x0b0630b4a419ed27ULL);
  SiWorkloadConfig config;
  config.pattern_count = 2000;
  config.groupings = {1, 2, 4};
  config.seed = 7;
  EXPECT_EQ(workload_config_hash(soc, config), 0x9eddfcd879b1ead3ULL);
}

// ---------------------------------------------------------------------------
// Evaluator counters.
// ---------------------------------------------------------------------------

class EvaluatorStatsTest : public ::testing::Test {
 protected:
  EvaluatorStatsTest() : table_(soc_, 8) {
    SiTestGroup group;
    group.label = "g1";
    group.cores = {0, 2};
    group.patterns = 50;
    group.raw_patterns = 50;
    tests_.groups.push_back(std::move(group));
  }

  static TamArchitecture two_rails() {
    TamArchitecture arch;
    arch.rails.resize(2);
    arch.rails[0].cores = {0, 1};
    arch.rails[0].width = 3;
    arch.rails[1].cores = {2, 3, 4};
    arch.rails[1].width = 5;
    return arch;
  }

  Soc soc_ = load_benchmark("mini5");
  TestTimeTable table_;
  SiTestSet tests_;
};

TEST_F(EvaluatorStatsTest, ReevaluationIsAFullRunWithAnIdenticalResult) {
  const TamEvaluator evaluator(soc_, table_, tests_);
  const TamArchitecture arch = two_rails();
  const Evaluation first = evaluator.evaluate(arch);
  const Evaluation again = evaluator.evaluate(arch);
  EXPECT_EQ(again, first);
  EXPECT_EQ(evaluator.t_soc(arch), first.t_soc);
  EXPECT_EQ(evaluator.stats().evaluations, 3);
  EXPECT_EQ(evaluator.stats().cache_misses, 3);
  EXPECT_EQ(evaluator.stats().full_evaluations(), 3);
  EXPECT_EQ(evaluator.stats().cache_hits, 0);
  EXPECT_EQ(evaluator.stats().delta_hits, 0);
}

TEST_F(EvaluatorStatsTest, ResetStatsClearsCounters) {
  TamEvaluator evaluator(soc_, table_, tests_);
  (void)evaluator.evaluate(two_rails());
  evaluator.reset_stats();
  EXPECT_EQ(evaluator.stats().evaluations, 0);
  EXPECT_EQ(evaluator.stats().cache_hits, 0);
  EXPECT_EQ(evaluator.stats().cache_misses, 0);
}

// ---------------------------------------------------------------------------
// Delta-vs-full bucket accounting: a DeltaEvaluator stacked on the full
// evaluator must keep delta hits (moves) apart from full runs (rebases and
// direct calls), and the rate helpers must report each bucket separately.
// ---------------------------------------------------------------------------

TEST_F(EvaluatorStatsTest, DeltaHitsAndFullRunsLandInSeparateBuckets) {
  const TamEvaluator evaluator(soc_, table_, tests_);
  DeltaEvaluator delta(evaluator);
  const TamArchitecture arch = two_rails();
  TamArchitecture moved = two_rails();
  std::swap(moved.rails[0].width, moved.rails[1].width);

  (void)delta.evaluate(arch);   // rebase: full run -> cache_misses
  (void)delta.evaluate(moved);  // one move -> delta_hits
  delta.invalidate();
  (void)delta.evaluate(arch);  // rebase of a seen architecture: full run

  const EvaluatorStats stats = delta.stats();
  EXPECT_EQ(stats.evaluations, 3);
  EXPECT_EQ(stats.cache_misses, 2);
  EXPECT_EQ(stats.delta_hits, 1);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.full_evaluations(), 2);
}

TEST_F(EvaluatorStatsTest, RateHelpersSeparateTheBuckets) {
  EvaluatorStats stats;
  stats.evaluations = 8;
  stats.cache_hits = 2;
  stats.delta_hits = 5;
  stats.cache_misses = 1;
  EXPECT_DOUBLE_EQ(stats.memo_hit_rate(), 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(stats.delta_hit_rate(), 5.0 / 8.0);
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 7.0 / 8.0);
  EXPECT_EQ(stats.full_evaluations(), 1);

  const EvaluatorStats zero;
  EXPECT_DOUBLE_EQ(zero.hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(zero.memo_hit_rate(), 0.0);
  EXPECT_DOUBLE_EQ(zero.delta_hit_rate(), 0.0);
}

TEST_F(EvaluatorStatsTest, DeltaHitsNeverReachTheFullEvaluator) {
  const TamEvaluator evaluator(soc_, table_, tests_);
  DeltaEvaluator delta(evaluator);
  TamArchitecture arch = two_rails();
  (void)delta.evaluate(arch);
  const std::int64_t wrapped_before = evaluator.stats().evaluations;
  std::swap(arch.rails[0].width, arch.rails[1].width);
  (void)delta.evaluate(arch);  // patched: no full run
  EXPECT_EQ(evaluator.stats().evaluations, wrapped_before);
  EXPECT_EQ(delta.breakdown().delta_hits, 1);
}

TEST_F(EvaluatorStatsTest, StatsSumWrappedAndLocalCounters) {
  const TamEvaluator evaluator(soc_, table_, tests_);
  DeltaEvaluator delta(evaluator);
  TamArchitecture arch = two_rails();
  (void)delta.evaluate(arch);
  // Direct use of the wrapped evaluator shares the same stats() totals.
  (void)evaluator.evaluate(arch);
  std::swap(arch.rails[0].width, arch.rails[1].width);
  (void)delta.evaluate(arch);

  const EvaluatorStats combined = delta.stats();
  EXPECT_EQ(combined.evaluations, 3);
  EXPECT_EQ(combined.cache_misses, 2);  // the rebase and the direct call
  EXPECT_EQ(combined.delta_hits, 1);    // the move
  EXPECT_EQ(combined.cache_hits, 0);
  EXPECT_EQ(combined.delta_hits + combined.cache_misses,
            combined.evaluations);
}

}  // namespace
}  // namespace sitam
