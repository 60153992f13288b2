// Tests for the workload cache and the evaluator's counters.
#include <gtest/gtest.h>

#include <filesystem>

#include "core/cache.h"
#include "soc/benchmarks.h"
#include "tam/delta.h"
#include "tam/evaluator.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (std::filesystem::temp_directory_path() /
            ("sitam_cache_test_" +
             std::to_string(::testing::UnitTest::GetInstance()
                                ->random_seed())))
               .string();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  SiWorkloadConfig config() const {
    SiWorkloadConfig c;
    c.pattern_count = 300;
    c.groupings = {1, 2};
    c.seed = 77;
    return c;
  }

  std::string dir_;
};

TEST_F(CacheTest, MissThenHitRoundTrips) {
  const Soc soc = load_benchmark("mini5");
  EXPECT_FALSE(load_workload(soc, config(), dir_).has_value());

  const SiWorkload prepared = SiWorkload::prepare(soc, config());
  save_workload(prepared, dir_);

  const auto loaded = load_workload(soc, config(), dir_);
  ASSERT_TRUE(loaded.has_value());
  for (const int parts : prepared.groupings()) {
    const SiTestSet& a = prepared.tests(parts);
    const SiTestSet& b = loaded->tests(parts);
    ASSERT_EQ(a.groups.size(), b.groups.size());
    EXPECT_EQ(a.total_patterns(), b.total_patterns());
    EXPECT_EQ(a.total_raw_patterns(), b.total_raw_patterns());
    for (std::size_t g = 0; g < a.groups.size(); ++g) {
      EXPECT_EQ(a.groups[g].cores, b.groups[g].cores);
      EXPECT_EQ(a.groups[g].patterns, b.groups[g].patterns);
      EXPECT_EQ(a.groups[g].is_remainder, b.groups[g].is_remainder);
    }
  }
}

TEST_F(CacheTest, PrepareCachedIsTransparent) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload first = prepare_cached(soc, config(), dir_);
  const SiWorkload second = prepare_cached(soc, config(), dir_);
  for (const int parts : first.groupings()) {
    EXPECT_EQ(first.tests(parts).total_patterns(),
              second.tests(parts).total_patterns());
  }
  // Experiments on the cached workload behave identically.
  const auto a = run_experiment(first, 4);
  const auto b = run_experiment(second, 4);
  EXPECT_EQ(a.t_min, b.t_min);
  EXPECT_EQ(a.t_baseline, b.t_baseline);
}

TEST_F(CacheTest, KeyDependsOnParameters) {
  const Soc soc = load_benchmark("mini5");
  const Soc other = load_benchmark("d695");
  SiWorkloadConfig base = config();
  const std::string key = workload_cache_key(soc, base);

  SiWorkloadConfig different_seed = base;
  different_seed.seed = 78;
  EXPECT_NE(workload_cache_key(soc, different_seed), key);

  SiWorkloadConfig different_count = base;
  different_count.pattern_count = 301;
  EXPECT_NE(workload_cache_key(soc, different_count), key);

  SiWorkloadConfig different_window = base;
  different_window.patterns.locality_window += 1;
  EXPECT_NE(workload_cache_key(soc, different_window), key);

  EXPECT_NE(workload_cache_key(other, base), key);
}

// Disk-cache filenames and SitamContext request keys are built from these
// hashes; a change to the mixing would silently orphan every cache
// directory, so the values are pinned.
TEST(CacheKey, PinnedForAFixedD695Config) {
  const Soc soc = load_benchmark("d695");
  EXPECT_EQ(soc_structure_hash(soc), 0x0b0630b4a419ed27ULL);
  SiWorkloadConfig config;
  config.pattern_count = 2000;
  config.groupings = {1, 2, 4};
  config.seed = 7;
  EXPECT_EQ(workload_cache_key(soc, config), "d695_nr2000_s9eddfcd879b1ead3");
}

TEST_F(CacheTest, PartialCacheIsAMiss) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload prepared = SiWorkload::prepare(soc, config());
  save_workload(prepared, dir_);
  // Remove one grouping's file: the load must treat the entry as absent.
  const std::string key = workload_cache_key(soc, config());
  std::filesystem::remove(std::filesystem::path(dir_) /
                          (key + "_g2.sitest"));
  EXPECT_FALSE(load_workload(soc, config(), dir_).has_value());
}

TEST_F(CacheTest, FromPreparedValidatesShape) {
  const Soc soc = load_benchmark("mini5");
  EXPECT_THROW(
      (void)SiWorkload::from_prepared(soc, config(), {}),
      std::invalid_argument);
  std::vector<SiTestSet> wrong(2);
  wrong[0].parts = 1;
  wrong[1].parts = 3;  // config says 2
  EXPECT_THROW((void)SiWorkload::from_prepared(soc, config(),
                                               std::move(wrong)),
               std::invalid_argument);
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
