// Golden regression tests: pin exact, seeded end-to-end numbers so that
// accidental behaviour drift anywhere in the pipeline (generator, compaction,
// partitioner, wrapper model, optimizer, scheduler) is caught immediately.
//
// These values are *not* physics — they are this implementation's documented
// outputs. If an intentional algorithm change shifts them, update the
// constants and record the change in EXPERIMENTS.md.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/flow.h"
#include "core/report.h"
#include "golden_file.h"
#include "interconnect/terminal_space.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "soc/benchmarks.h"
#include "tam/optimizer.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

TEST(Regression, TrArchitectInTestTimes) {
  // Calibration anchors (see DESIGN.md §3): published TR-Architect results
  // are p34392: 1,010,821 @ W16 and 544,579 plateau; p93791: 1,791,860 @
  // W16 down to 455,738 @ W64. Our reconstruction lands within a few
  // percent at the anchors below.
  struct Case {
    const char* soc;
    int w;
    std::int64_t t_in;
  };
  const Case cases[] = {
      {"p34392", 16, 992445}, {"p34392", 32, 531600},
      {"p34392", 64, 531600}, {"p93791", 16, 1768898},
      {"p93791", 32, 894489}, {"p93791", 64, 527785},
  };
  static const SiTestSet kNoTests{};
  for (const Case& c : cases) {
    const Soc soc = load_benchmark(c.soc);
    const TestTimeTable table(soc, c.w);
    const OptimizeResult result =
        optimize_tam(soc, table, kNoTests, c.w);
    EXPECT_EQ(result.evaluation.t_in, c.t_in)
        << c.soc << " W=" << c.w;
  }
}

TEST(Regression, GreedyCompactionCount) {
  const Soc soc = load_benchmark("p93791");
  const TerminalSpace ts(soc);
  Rng rng(7);
  const RandomPatternConfig config;
  const auto patterns = generate_random_patterns(ts, 10000, config, rng);
  const auto result = compact_greedy(patterns, ts.total(), config.bus_width);
  EXPECT_EQ(result.patterns.size(), 553u);
}

TEST(Regression, Mini5Experiment) {
  const Soc soc = load_benchmark("mini5");
  SiWorkloadConfig config;
  config.pattern_count = 400;
  config.groupings = {1, 2};
  config.seed = 42;
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const ExperimentOutcome outcome = run_experiment(workload, 4);
  EXPECT_EQ(outcome.t_baseline, 5338);
  EXPECT_EQ(outcome.per_grouping[0].evaluation.t_soc, 5196);
  EXPECT_EQ(outcome.per_grouping[1].evaluation.t_soc, 5954);
  EXPECT_EQ(outcome.t_min, 5196);
  EXPECT_EQ(outcome.best_grouping, 1);
}

// ---------------------------------------------------------------------------
// Golden-file regressions: the rendered paper tables for canonical (small)
// p34392/p93791 sweeps are pinned byte-for-byte under tests/golden/. They
// pin not just the optimizer's numbers but the whole reporting pipeline —
// captions, column layout, percentage formatting, CSV dump. Regenerate with
//   SITAM_UPDATE_GOLDEN=1 ctest -R regression_test
// and record intentional shifts in EXPERIMENTS.md.
// ---------------------------------------------------------------------------

std::string render_sweep_document(const SweepResult& sweep) {
  std::ostringstream os;
  os << sweep_caption(sweep) << "\n"
     << render_paper_table(sweep) << "\n"
     << render_paper_table(sweep).csv();
  return os.str();
}

using golden::expect_matches_golden;

/// The default OptimizerConfig runs the sweep's job list on every core;
/// `threads` = 1 runs it serially on the caller. Both must render the
/// same golden bytes.
SweepResult canonical_sweep(const std::string& soc_name,
                            std::int64_t pattern_count, int threads = 0) {
  const Soc soc = load_benchmark(soc_name);
  SiWorkloadConfig config;
  config.pattern_count = pattern_count;
  config.groupings = {1, 2};
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  OptimizerConfig optimizer;
  optimizer.threads = threads;
  return run_sweep(workload, {16, 32}, optimizer);
}

TEST(Regression, Table2P34392Golden) {
  expect_matches_golden("table2_p34392.txt",
                        render_sweep_document(canonical_sweep("p34392", 800)));
}

TEST(Regression, Table3P93791Golden) {
  expect_matches_golden("table3_p93791.txt",
                        render_sweep_document(canonical_sweep("p93791", 800)));
}

TEST(Regression, Table2P34392GoldenSerial) {
  expect_matches_golden(
      "table2_p34392.txt",
      render_sweep_document(canonical_sweep("p34392", 800, /*threads=*/1)));
}

TEST(Regression, Table3P93791GoldenSerial) {
  expect_matches_golden(
      "table3_p93791.txt",
      render_sweep_document(canonical_sweep("p93791", 800, /*threads=*/1)));
}

TEST(Regression, RunProtocolRendersTheGoldenTables) {
  // Both canonical sweeps as cells of one job graph: the same bytes.
  std::vector<ProtocolCell> cells;
  for (const char* name : {"p34392", "p93791"}) {
    SiWorkloadConfig config;
    config.pattern_count = 800;
    config.groupings = {1, 2};
    cells.push_back({load_benchmark(name), config});
  }
  Executor executor(ThreadPool::hardware_threads());
  const std::vector<ProtocolResult> results =
      run_protocol(cells, {16, 32}, {}, executor);
  ASSERT_EQ(results.size(), 2u);
  expect_matches_golden("table2_p34392.txt",
                        render_sweep_document(results[0].sweep));
  expect_matches_golden("table3_p93791.txt",
                        render_sweep_document(results[1].sweep));
}

TEST(Regression, D695Experiment) {
  const Soc soc = load_benchmark("d695");
  SiWorkloadConfig config;
  config.pattern_count = 1500;
  config.seed = 7;
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const ExperimentOutcome outcome = run_experiment(workload, 16);
  EXPECT_EQ(outcome.t_baseline, 69425);
  EXPECT_EQ(outcome.t_min, 62194);
  EXPECT_EQ(outcome.best_grouping, 2);
}

// Pins Algorithm 2's trajectory, not just its result: the winning
// architecture and T_soc, and the evaluator counters summed over four
// restarts. A change in which candidates are evaluated, or in what order,
// moves the counters even where the result survives.
TEST(Regression, P93791Alg2ResultAndEvaluationOrder) {
  const Soc soc = load_benchmark("p93791");
  SiWorkloadConfig config;
  config.pattern_count = 2000;
  config.groupings = {4};
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const TestTimeTable table(soc, 32);
  OptimizerConfig optimizer;
  optimizer.restarts = 4;
  const OptimizeResult result =
      optimize_tam(soc, table, workload.tests(4), 32, optimizer);
  EXPECT_EQ(result.evaluation.t_soc, 890275);
  EXPECT_EQ(result.evaluation.t_in, 879035);
  EXPECT_EQ(result.architecture.describe(),
            "{8,19,21,29,31|w=3} {1,9,10|w=4} {0,3,6,7,25|w=4} "
            "{14,20,22,23,28,30|w=6} {4,5,11,12,24|w=8} "
            "{2,13,15,16,17,18,26,27|w=7}");
  EXPECT_EQ(result.stats.evaluations, 5738);
  EXPECT_EQ(result.stats.delta_hits, 5734);
  EXPECT_EQ(result.stats.cache_misses, 4);
}

}  // namespace
}  // namespace sitam
