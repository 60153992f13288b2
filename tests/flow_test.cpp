// Tests for src/core: the experiment flow façade and the paper-style
// reporting.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/flow.h"
#include "core/report.h"
#include "obs/obs.h"
#include "pattern/generator.h"
#include "soc/benchmarks.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sitam {
namespace {

SiWorkloadConfig small_config() {
  SiWorkloadConfig config;
  config.pattern_count = 400;
  config.groupings = {1, 2};
  config.seed = 42;
  return config;
}

TEST(SiWorkload, PrepareExposesAllGroupings) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload workload = SiWorkload::prepare(soc, small_config());
  EXPECT_EQ(workload.soc().name, "mini5");
  EXPECT_EQ(workload.raw_pattern_count(), 400);
  ASSERT_EQ(workload.groupings().size(), 2u);
  EXPECT_NO_THROW((void)workload.tests(1));
  EXPECT_NO_THROW((void)workload.tests(2));
  EXPECT_THROW((void)workload.tests(4), std::out_of_range);
}

TEST(SiWorkload, TestsConserveRawPatterns) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload workload = SiWorkload::prepare(soc, small_config());
  for (const int parts : workload.groupings()) {
    EXPECT_EQ(workload.tests(parts).total_raw_patterns(), 400);
  }
}

TEST(SiWorkload, DeterministicAcrossPrepares) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload a = SiWorkload::prepare(soc, small_config());
  const SiWorkload b = SiWorkload::prepare(soc, small_config());
  for (const int parts : a.groupings()) {
    EXPECT_EQ(a.tests(parts).total_patterns(),
              b.tests(parts).total_patterns());
  }
}

TEST(SiWorkload, ParallelPrepareMatchesSequential) {
  const Soc soc = load_benchmark("d695");
  SiWorkloadConfig config;
  config.pattern_count = 1200;
  config.groupings = {1, 2, 4};
  config.seed = 99;
  config.parallel_prepare = true;
  const SiWorkload parallel = SiWorkload::prepare(soc, config);
  config.parallel_prepare = false;
  const SiWorkload sequential = SiWorkload::prepare(soc, config);
  for (const int parts : config.groupings) {
    const SiTestSet& a = parallel.tests(parts);
    const SiTestSet& b = sequential.tests(parts);
    ASSERT_EQ(a.groups.size(), b.groups.size()) << "parts=" << parts;
    for (std::size_t g = 0; g < a.groups.size(); ++g) {
      EXPECT_EQ(a.groups[g].cores, b.groups[g].cores);
      EXPECT_EQ(a.groups[g].patterns, b.groups[g].patterns);
      EXPECT_EQ(a.groups[g].raw_patterns, b.groups[g].raw_patterns);
    }
  }
}

TEST(SiWorkload, CancelledJobListStartsNoCompaction) {
  // prepare's token reaches the job list: the pass checks it before the
  // partitions start and each compaction job before it starts, so a
  // cancelled pass unwinds with Cancelled without partitioning or
  // compacting anything, on the caller or on a pool.
  const Soc soc = load_benchmark("d695");
  const TerminalSpace ts(soc);
  Rng rng(5);
  const auto patterns =
      generate_random_patterns(ts, 2000, RandomPatternConfig{}, rng);
  const std::vector<int> groupings = {1, 2, 4, 8};
  CancelToken token;
  token.request();
  for (const int threads : {1, ThreadPool::hardware_threads()}) {
    obs::TraceSession session;
    Executor executor(threads);
    EXPECT_THROW((void)build_si_test_sets(patterns, ts, groupings,
                                          GroupingConfig{}, executor, &token),
                 Cancelled)
        << "threads=" << threads;
    const obs::TraceDump dump = session.stop();
    for (const obs::TrackDump& track : dump.tracks) {
      for (const obs::SpanEvent& span : track.spans) {
        EXPECT_STRNE(span.name, "sitest.compact") << "threads=" << threads;
        EXPECT_STRNE(span.name, "hypergraph.bisect") << "threads=" << threads;
        EXPECT_STRNE(span.name, "hypergraph.attempt")
            << "threads=" << threads;
      }
    }
  }
}

TEST(SiWorkload, SeedChangesWorkload) {
  const Soc soc = load_benchmark("mini5");
  SiWorkloadConfig config = small_config();
  const SiWorkload a = SiWorkload::prepare(soc, config);
  config.seed = 43;
  const SiWorkload b = SiWorkload::prepare(soc, config);
  // Different seeds virtually never produce identical compacted counts for
  // every grouping.
  bool any_diff = false;
  for (const int parts : a.groupings()) {
    if (a.tests(parts).total_patterns() != b.tests(parts).total_patterns()) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(SiWorkload, RejectsBadConfigs) {
  const Soc soc = load_benchmark("mini5");
  SiWorkloadConfig config = small_config();
  config.groupings = {};
  EXPECT_THROW((void)SiWorkload::prepare(soc, config),
               std::invalid_argument);
  config = small_config();
  config.groupings = {0};
  EXPECT_THROW((void)SiWorkload::prepare(soc, config),
               std::invalid_argument);
  config = small_config();
  config.pattern_count = -1;
  EXPECT_THROW((void)SiWorkload::prepare(soc, config),
               std::invalid_argument);
}

TEST(RunExperiment, OutcomeInvariants) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload workload = SiWorkload::prepare(soc, small_config());
  const ExperimentOutcome outcome = run_experiment(workload, 4);

  EXPECT_EQ(outcome.w_max, 4);
  ASSERT_EQ(outcome.per_grouping.size(), 2u);
  // T_min is the minimum over groupings, best_grouping names it.
  std::int64_t expected_min = outcome.per_grouping[0].evaluation.t_soc;
  expected_min =
      std::min(expected_min, outcome.per_grouping[1].evaluation.t_soc);
  EXPECT_EQ(outcome.t_min, expected_min);
  const auto& groupings = workload.groupings();
  const bool best_listed =
      std::find(groupings.begin(), groupings.end(), outcome.best_grouping) !=
      groupings.end();
  EXPECT_TRUE(best_listed);
  // Baseline architecture uses exactly w_max wires.
  EXPECT_EQ(outcome.baseline_architecture.total_width(), 4);
  EXPECT_GT(outcome.t_baseline, 0);
}

TEST(RunExperiment, DeltaFormulasMatchPaper) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload workload = SiWorkload::prepare(soc, small_config());
  const ExperimentOutcome outcome = run_experiment(workload, 6);
  const double expected_baseline =
      100.0 *
      static_cast<double>(outcome.t_baseline - outcome.t_min) /
      static_cast<double>(outcome.t_baseline);
  EXPECT_DOUBLE_EQ(outcome.delta_baseline_pct(), expected_baseline);
  const std::int64_t t_g1 = outcome.per_grouping[0].evaluation.t_soc;
  const double expected_g =
      100.0 * static_cast<double>(t_g1 - outcome.t_min) /
      static_cast<double>(t_g1);
  EXPECT_DOUBLE_EQ(outcome.delta_g_pct(), expected_g);
  // T_min <= T_g1 by definition, so dTg >= 0 always.
  EXPECT_GE(outcome.delta_g_pct(), 0.0);
}

TEST(RunExperiment, RejectsBadWidth) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload workload = SiWorkload::prepare(soc, small_config());
  EXPECT_THROW((void)run_experiment(workload, 0), std::invalid_argument);
}

TEST(RunSweep, OneRowPerWidth) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload workload = SiWorkload::prepare(soc, small_config());
  const SweepResult sweep = run_sweep(workload, {2, 4, 6});
  EXPECT_EQ(sweep.soc_name, "mini5");
  EXPECT_EQ(sweep.pattern_count, 400);
  ASSERT_EQ(sweep.rows.size(), 3u);
  EXPECT_EQ(sweep.rows[0].w_max, 2);
  EXPECT_EQ(sweep.rows[2].w_max, 6);
}

TEST(Report, PaperTableShape) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload workload = SiWorkload::prepare(soc, small_config());
  const SweepResult sweep = run_sweep(workload, {2, 4});
  const TextTable table = render_paper_table(sweep);
  // Wmax, T[8], one column per grouping, Tmin, dT[8], dTg.
  EXPECT_EQ(table.column_count(), 2u + 2u + 3u);
  EXPECT_EQ(table.row_count(), 2u);
  const std::string rendered = table.str();
  EXPECT_NE(rendered.find("T[8]"), std::string::npos);
  EXPECT_NE(rendered.find("Tg1"), std::string::npos);
  EXPECT_NE(rendered.find("Tg2"), std::string::npos);
  EXPECT_NE(rendered.find("Tmin"), std::string::npos);
}

TEST(Report, SweepCaption) {
  SweepResult sweep;
  sweep.soc_name = "p93791";
  sweep.pattern_count = 100000;
  EXPECT_EQ(sweep_caption(sweep),
            "SOC p93791, N_r = 100000 (times in clock cycles)");
}

TEST(Report, DescribeEvaluationMentionsRailsAndSchedule) {
  const Soc soc = load_benchmark("mini5");
  const SiWorkload workload = SiWorkload::prepare(soc, small_config());
  const ExperimentOutcome outcome = run_experiment(workload, 4);
  const OptimizeResult& best = outcome.per_grouping[0];
  const std::string text = describe_evaluation(
      best.architecture, best.evaluation, workload.tests(1));
  EXPECT_NE(text.find("T_soc"), std::string::npos);
  EXPECT_NE(text.find("TAM1"), std::string::npos);
  EXPECT_NE(text.find("SI schedule"), std::string::npos);
  EXPECT_NE(text.find("g1"), std::string::npos);
}

}  // namespace
}  // namespace sitam
