// run_protocol: the Tables 2/3 job graph over every (SOC, N_r) cell. Its
// workloads and rows must equal, byte for byte, what SiWorkload::prepare
// and run_sweep give per cell, on executors of every size (this suite
// rides the tsan preset), and a traced run must show the graph's shape:
// one wrapper table per SOC, the baseline jobs once per (SOC, W), and the
// next cell's draw beside the previous cell's Algorithm 2 jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/flow.h"
#include "obs/obs.h"
#include "soc/benchmarks.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace sitam {
namespace {

/// Every field of a workload's test sets.
std::string digest(const SiWorkload& workload) {
  std::ostringstream os;
  for (const int parts : workload.groupings()) {
    os << "i=" << parts << ':';
    for (const SiTestGroup& group : workload.tests(parts).groups) {
      os << ' ' << group.label << '/' << group.patterns << '/'
         << group.raw_patterns << '/' << group.is_remainder << '[';
      for (const int core : group.cores) os << core << ',';
      os << ']';
    }
    os << '\n';
  }
  return os.str();
}

/// Every field of a sweep's rows, stats and architectures included.
std::string digest(const SweepResult& sweep) {
  std::ostringstream os;
  os << sweep.soc_name << " N_r=" << sweep.pattern_count << '\n';
  for (const ExperimentOutcome& row : sweep.rows) {
    os << "W=" << row.w_max << " T8=" << row.t_baseline << ' '
       << row.baseline_architecture.describe() << " Tmin=" << row.t_min
       << " best=" << row.best_grouping << '\n';
    for (const OptimizeResult& result : row.per_grouping) {
      os << "  " << result.evaluation.t_soc << '/' << result.evaluation.t_in
         << '/' << result.evaluation.t_si << ' '
         << result.architecture.describe() << " evals="
         << result.stats.evaluations << '/' << result.stats.cache_hits << '/'
         << result.stats.delta_hits << '/' << result.stats.cache_misses
         << '\n';
    }
  }
  return os.str();
}

std::vector<ProtocolCell> table_cells() {
  std::vector<ProtocolCell> cells;
  for (const char* name : {"p34392", "p93791"}) {
    for (const std::int64_t n_r : {600, 1500}) {
      SiWorkloadConfig config;
      config.pattern_count = n_r;
      config.groupings = {1, 2, 4};
      cells.push_back({load_benchmark(name), config});
    }
  }
  return cells;
}

const std::vector<int> kWidths = {8, 24, 40};

TEST(Protocol, MatchesPrepareAndRunSweepPerCellForEveryExecutor) {
  const std::vector<ProtocolCell> cells = table_cells();
  OptimizerConfig optimizer;
  optimizer.restarts = 2;
  std::vector<std::string> expected;
  for (const ProtocolCell& cell : cells) {
    const SiWorkload workload = SiWorkload::prepare(cell.soc, cell.config);
    expected.push_back(digest(workload) +
                       digest(run_sweep(workload, kWidths, optimizer)));
  }
  for (const int threads : {1, 2, 3, 0}) {
    Executor executor(threads == 0 ? ThreadPool::hardware_threads()
                                   : threads);
    const std::vector<ProtocolResult> results =
        run_protocol(cells, kWidths, optimizer, executor);
    ASSERT_EQ(results.size(), cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
      EXPECT_EQ(digest(results[c].workload) + digest(results[c].sweep),
                expected[c])
          << "cell " << c << " threads=" << threads;
      EXPECT_EQ(results[c].workload.soc(), cells[c].soc);
      EXPECT_EQ(results[c].workload.raw_pattern_count(),
                cells[c].config.pattern_count);
    }
  }
}

TEST(Protocol, TracedRunBuildsOneTablePerSocAndOverlapsTheCells) {
  // Two cells of p93791 and one of d695: two tables, the baseline jobs once
  // per (SOC, W, restart), and the second cell's draw starting while a
  // grouping job of the first cell still runs (the draw is queued ahead
  // of the first cell's waiting Algorithm 2 units).
  std::vector<ProtocolCell> cells;
  for (const std::int64_t n_r : {1500, 3000}) {
    SiWorkloadConfig config;
    config.pattern_count = n_r;
    config.groupings = {1, 2, 4, 8};
    cells.push_back({load_benchmark("p93791"), config});
  }
  SiWorkloadConfig small;
  small.pattern_count = 500;
  small.groupings = {1, 2};
  cells.push_back({load_benchmark("d695"), small});
  OptimizerConfig optimizer;
  optimizer.restarts = 2;
  const std::vector<int> widths = {16, 32, 48};
  obs::TraceSession session;
  std::vector<ProtocolResult> results;
  {
    // Joined before the session stops: a worker closes its task span
    // after the task's last job has returned.
    Executor executor(2);
    results = run_protocol(cells, widths, optimizer, executor);
  }
  const obs::TraceDump dump = session.stop();
  ASSERT_EQ(results.size(), 3u);

  std::vector<obs::SpanEvent> tables;
  std::vector<obs::SpanEvent> generates;
  std::vector<obs::SpanEvent> jobs;
  for (const obs::TrackDump& track : dump.tracks) {
    for (const obs::SpanEvent& span : track.spans) {
      const std::string_view name = span.name;
      if (name == "wrapper.table") tables.push_back(span);
      if (name == "flow.workload.generate") generates.push_back(span);
      if (name == "flow.sweep.job") jobs.push_back(span);
    }
  }
  ASSERT_EQ(tables.size(), 2u);
  for (const obs::SpanEvent& table : tables) EXPECT_EQ(table.arg, 48);
  std::int64_t baselines = 0;
  std::int64_t grouping_jobs = 0;
  for (const obs::SpanEvent& job : jobs) {
    (job.arg == 0 ? baselines : grouping_jobs) += 1;
  }
  // Per SOC and width: one baseline job of two restarts.
  EXPECT_EQ(baselines, 2 * 3 * 2);
  // Per cell, width and grouping: one job of two restarts.
  EXPECT_EQ(grouping_jobs, (4 + 4 + 2) * 3 * 2);

  ASSERT_EQ(generates.size(), 3u);
  std::sort(generates.begin(), generates.end(),
            [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
              return a.begin_ns < b.begin_ns;
            });
  EXPECT_EQ(generates[0].arg, 1500);
  EXPECT_EQ(generates[1].arg, 3000);
  // The later cells' grouping jobs need their draws, so they all end
  // after the second draw starts; any more jobs that do are the first
  // cell's, whose sweep that draw did not wait for.
  const std::int64_t second = generates[1].begin_ns;
  std::int64_t ending_after = 0;
  for (const obs::SpanEvent& job : jobs) {
    if (job.arg > 0 && job.end_ns > second) ++ending_after;
  }
  EXPECT_GT(ending_after, (4 + 2) * 3 * 2)
      << "the second cell's draw waited for the first cell's sweep";
}

TEST(Protocol, RejectsBadInputsBeforeAnyJobAndHonoursCancel) {
  std::vector<ProtocolCell> cells = table_cells();
  cells.resize(1);
  Executor executor(2);
  EXPECT_THROW((void)run_protocol(cells, {8, 0}, {}, executor),
               std::invalid_argument);
  cells.front().config.groupings = {};
  EXPECT_THROW((void)run_protocol(cells, {8}, {}, executor),
               std::invalid_argument);
  cells = table_cells();
  CancelToken token;
  token.request();
  OptimizerConfig optimizer;
  optimizer.cancel = &token;
  EXPECT_THROW((void)run_protocol(cells, kWidths, optimizer, executor),
               Cancelled);
  // No cells, or no widths: nothing to run, or workloads without rows.
  EXPECT_TRUE(run_protocol({}, kWidths, {}, executor).empty());
  cells.resize(1);
  const std::vector<ProtocolResult> prepared =
      run_protocol(cells, {}, {}, executor);
  ASSERT_EQ(prepared.size(), 1u);
  EXPECT_TRUE(prepared.front().sweep.rows.empty());
  EXPECT_EQ(digest(prepared.front().workload),
            digest(SiWorkload::prepare(cells.front().soc,
                                       cells.front().config)));
}

}  // namespace
}  // namespace sitam
