// Unit tests for the src/obs tracing & metrics subsystem: session
// lifecycle, span/counter/histogram recording, per-thread tracks, the
// Chrome trace-event / metrics exporters (validated through
// obs/trace_verify), the run manifest, and — the core contract — that
// instrumentation never changes optimization results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/flow.h"
#include "core/report.h"
#include "interconnect/terminal_space.h"
#include "obs/export.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "obs/trace_verify.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "soc/benchmarks.h"
#include "soc/synth.h"
#include "tam/optimizer.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sitam {
namespace {

using obs::TraceDump;

void record_probe_events() {
  SITAM_TRACE_SPAN("test.obs.outer");
  {
    SITAM_TRACE_SPAN_ARG("test.obs.inner", 7);
    SITAM_COUNTER("test.obs.ticks", 2);
    SITAM_COUNTER("test.obs.ticks", 3);
    SITAM_HISTOGRAM("test.obs.sizes", 4);
    SITAM_HISTOGRAM("test.obs.sizes", 5);
  }
}

TEST(Obs, MacrosAreInertWithoutASession) {
  ASSERT_FALSE(obs::active());
  record_probe_events();  // Must not crash, allocate a session, or record.
  ASSERT_FALSE(obs::active());
  obs::TraceSession session;
  const TraceDump dump = session.stop();
  // Events recorded before the session started are not in the dump.
  EXPECT_EQ(dump.metrics.counter("test.obs.ticks"), 0);
  EXPECT_EQ(dump.metrics.histograms.count("test.obs.sizes"), 0U);
}

TEST(Obs, SessionRecordsSpansCountersAndHistograms) {
  obs::set_current_thread_label("main");
  obs::TraceSession session;
  EXPECT_TRUE(obs::active());
  record_probe_events();
  const TraceDump dump = session.stop();
  EXPECT_FALSE(obs::active());

  ASSERT_EQ(dump.tracks.size(), 1U);
  const obs::TrackDump& track = dump.tracks[0];
  EXPECT_EQ(track.tid, 1);
  EXPECT_EQ(track.label, "main");
  EXPECT_EQ(track.dropped_spans, 0);
  ASSERT_EQ(track.spans.size(), 2U);
  // Stable-sorted by begin time: the outer span opens first.
  EXPECT_STREQ(track.spans[0].name, "test.obs.outer");
  EXPECT_EQ(track.spans[0].arg, obs::kNoSpanArg);
  EXPECT_STREQ(track.spans[1].name, "test.obs.inner");
  EXPECT_EQ(track.spans[1].arg, 7);
  EXPECT_LE(track.spans[0].begin_ns, track.spans[1].begin_ns);
  EXPECT_GE(track.spans[0].end_ns, track.spans[1].end_ns);

  EXPECT_EQ(dump.metrics.counter("test.obs.ticks"), 5);
  EXPECT_EQ(dump.metrics.counter("test.obs.never_bumped"), 0);
  ASSERT_EQ(dump.metrics.histograms.count("test.obs.sizes"), 1U);
  const obs::HistogramData& h = dump.metrics.histograms.at("test.obs.sizes");
  EXPECT_EQ(h.count, 2);
  EXPECT_EQ(h.sum, 9);
  EXPECT_EQ(h.min, 4);
  EXPECT_EQ(h.max, 5);
  EXPECT_EQ(h.buckets[3], 2);  // bit_width(4) == bit_width(5) == 3.
  EXPECT_DOUBLE_EQ(h.mean(), 4.5);
}

TEST(Obs, HistogramBucketZeroHoldsNonPositiveValues) {
  obs::HistogramData h;
  h.record(0);
  h.record(-17);
  h.record(1);
  EXPECT_EQ(h.buckets[0], 2);
  EXPECT_EQ(h.buckets[1], 1);
  EXPECT_EQ(h.min, -17);
  EXPECT_EQ(h.max, 1);
}

// Pins the quantile math exported as p50/p95/p99: fractional rank
// q*(count-1), linear interpolation across the bucket's value range,
// clamped to [min, max].
TEST(Obs, HistogramQuantiles) {
  obs::HistogramData empty;
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);

  obs::HistogramData single;
  single.record(42);
  // One sample: every quantile collapses onto it via the [min,max] clamp.
  EXPECT_DOUBLE_EQ(single.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(single.quantile(0.5), 42.0);
  EXPECT_DOUBLE_EQ(single.quantile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(single.quantile(1.0), 42.0);

  obs::HistogramData bucket;  // 4,5,6,7 all land in bucket 3: [4, 8).
  for (const std::int64_t v : {4, 5, 6, 7}) bucket.record(v);
  // Rank 0.5 * 3 = 1.5 -> fraction 0.5 across [4, 8) -> 6.
  EXPECT_DOUBLE_EQ(bucket.quantile(0.5), 6.0);
  // Rank 2.97 -> fraction 0.99 -> 7.96, clamped to max = 7.
  EXPECT_DOUBLE_EQ(bucket.quantile(0.99), 7.0);
  EXPECT_DOUBLE_EQ(bucket.quantile(0.0), 4.0);
  EXPECT_DOUBLE_EQ(bucket.quantile(1.0), 7.0);

  obs::HistogramData spread;  // 1 in bucket 1, 8 in bucket 4.
  spread.record(1);
  spread.record(8);
  // Rank 0.5 falls in bucket 4; a lone sample sits mid-bucket (12),
  // clamped to max = 8.
  EXPECT_DOUBLE_EQ(spread.quantile(0.5), 8.0);
  // Only rank 0 maps onto the first sample; q = 0 reaches it exactly.
  EXPECT_DOUBLE_EQ(spread.quantile(0.0), 1.0);
}

TEST(Obs, StoppingTwiceThrows) {
  obs::TraceSession session;
  (void)session.stop();
  EXPECT_TRUE(session.stopped());
  EXPECT_THROW((void)session.stop(), std::logic_error);
}

TEST(Obs, SecondConcurrentSessionThrows) {
  obs::TraceSession session;
  EXPECT_THROW(obs::TraceSession second, std::logic_error);
  (void)session.stop();
}

TEST(Obs, SessionsAreIndependent) {
  {
    obs::TraceSession first;
    SITAM_COUNTER("test.obs.ticks", 100);
    (void)first.stop();
  }
  obs::TraceSession second;
  SITAM_COUNTER("test.obs.ticks", 1);
  const TraceDump dump = second.stop();
  EXPECT_EQ(dump.metrics.counter("test.obs.ticks"), 1);
}

TEST(Obs, SpanOverflowCountsDropsInsteadOfGrowing) {
  obs::TraceConfig config;
  config.span_capacity_per_thread = 4;
  obs::TraceSession session(config);
  for (int i = 0; i < 10; ++i) {
    SITAM_TRACE_SPAN_ARG("test.obs.flood", i);
  }
  const TraceDump dump = session.stop();
  ASSERT_EQ(dump.tracks.size(), 1U);
  EXPECT_EQ(dump.tracks[0].spans.size(), 4U);
  EXPECT_EQ(dump.tracks[0].dropped_spans, 6);
  EXPECT_EQ(dump.metrics.dropped_spans, 6);
}

TEST(Obs, EachThreadGetsItsOwnTrack) {
  obs::TraceSession session;
  SITAM_TRACE_SPAN("test.obs.main_work");
  SITAM_COUNTER("test.obs.thread_ticks", 1);
  {
    ThreadPool pool(3);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 6; ++i) {
      futures.push_back(pool.submit([i] {
        SITAM_TRACE_SPAN_ARG("test.obs.pool_work", i);
        SITAM_COUNTER("test.obs.thread_ticks", 1);
      }));
    }
    for (auto& f : futures) f.get();
  }
  const TraceDump dump = session.stop();

  // The main thread plus every pool worker that ran at least one task. On a
  // single-CPU host one worker can drain the whole queue, so only a lower
  // bound on the track count is deterministic.
  ASSERT_GE(dump.tracks.size(), 2U);
  std::size_t pool_spans = 0;
  for (std::size_t i = 0; i < dump.tracks.size(); ++i) {
    EXPECT_EQ(dump.tracks[i].tid, static_cast<int>(i) + 1);  // Sorted, 1-based.
    for (const obs::SpanEvent& span : dump.tracks[i].spans) {
      if (std::string_view(span.name) == "test.obs.pool_work") ++pool_spans;
    }
  }
  EXPECT_EQ(pool_spans, 6U);
  // Counters aggregate across threads.
  EXPECT_EQ(dump.metrics.counter("test.obs.thread_ticks"), 7);
  // The pool's own instrumentation fed the queue-depth histogram.
  EXPECT_EQ(dump.metrics.histograms.count("util.thread_pool.queue_depth"),
            1U);
}

TEST(Obs, DetachedThreadEventsSurviveIntoTheDump) {
  obs::TraceSession session;
  std::thread worker([] {
    obs::set_current_thread_label("detached");
    SITAM_TRACE_SPAN("test.obs.detached_work");
    SITAM_COUNTER("test.obs.detached_ticks", 3);
  });
  worker.join();  // Thread exit merges its buffers into the session.
  const TraceDump dump = session.stop();
  EXPECT_EQ(dump.metrics.counter("test.obs.detached_ticks"), 3);
  bool found = false;
  for (const obs::TrackDump& track : dump.tracks) {
    if (track.label == "detached") {
      found = true;
      ASSERT_EQ(track.spans.size(), 1U);
      EXPECT_STREQ(track.spans[0].name, "test.obs.detached_work");
    }
  }
  EXPECT_TRUE(found);
}

obs::RunManifest test_manifest() {
  obs::RunManifest manifest = obs::RunManifest::collect("obs_test");
  manifest.scenario = "unit";
  manifest.seed = 42;
  manifest.threads = 2;
  manifest.add_extra("n_r", "123");
  return manifest;
}

TEST(Obs, ChromeTraceExportPassesTheVerifier) {
  obs::TraceSession session;
  record_probe_events();
  std::thread worker([] { SITAM_TRACE_SPAN("test.obs.worker_span"); });
  worker.join();
  const TraceDump dump = session.stop();

  const std::string trace = obs::chrome_trace_json(dump, test_manifest());
  const obs::TraceVerifyResult verdict = obs::verify_chrome_trace(trace);
  EXPECT_TRUE(verdict.ok) << verdict.summary();
  EXPECT_EQ(verdict.span_events, 3);
  EXPECT_EQ(verdict.tracks, 2);
  EXPECT_NE(verdict.summary().find("trace ok"), std::string::npos);
  // Manifest and track-name metadata ride along in the same document.
  EXPECT_NE(trace.find("\"manifest\""), std::string::npos);
  EXPECT_NE(trace.find("\"obs_test\""), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
}

TEST(Obs, MetricsExportCarriesCountersHistogramsAndManifest) {
  obs::TraceSession session;
  record_probe_events();
  const TraceDump dump = session.stop();
  const std::string metrics = obs::metrics_json(dump, test_manifest());
  EXPECT_NE(metrics.find("\"manifest\""), std::string::npos);
  EXPECT_NE(metrics.find("\"test.obs.ticks\""), std::string::npos);
  EXPECT_NE(metrics.find("5"), std::string::npos);
  EXPECT_NE(metrics.find("\"test.obs.sizes\""), std::string::npos);
}

TEST(Obs, ManifestWritesProgramSeedAndExtras) {
  const obs::RunManifest manifest = test_manifest();
  EXPECT_EQ(manifest.program, "obs_test");
  EXPECT_FALSE(manifest.build_type.empty());
  EXPECT_GE(manifest.hardware_threads, 1);
  JsonWriter json;
  manifest.write(json);
  const std::string text = json.str();
  EXPECT_NE(text.find("\"program\""), std::string::npos);
  EXPECT_NE(text.find("\"seed\""), std::string::npos);
  EXPECT_NE(text.find("\"n_r\""), std::string::npos);
  EXPECT_NE(text.find("123"), std::string::npos);
}

TEST(Obs, ManifestCollectBasenamesThePath) {
  EXPECT_EQ(obs::RunManifest::collect("./build/bench/table2_p34392").program,
            "table2_p34392");
  EXPECT_EQ(obs::RunManifest::collect("plain_name").program, "plain_name");
}

TEST(Obs, TraceVerifierRejectsMalformedDocuments) {
  EXPECT_FALSE(obs::verify_chrome_trace("{").ok);
  EXPECT_FALSE(obs::verify_chrome_trace("{\"noEvents\": []}").ok);
  // ts must be monotone within a (pid, tid) track.
  const std::string backwards =
      "{\"traceEvents\": ["
      "{\"ph\": \"X\", \"name\": \"a\", \"pid\": 1, \"tid\": 1, "
      "\"ts\": 10, \"dur\": 1},"
      "{\"ph\": \"X\", \"name\": \"b\", \"pid\": 1, \"tid\": 1, "
      "\"ts\": 5, \"dur\": 1}]}";
  const obs::TraceVerifyResult verdict = obs::verify_chrome_trace(backwards);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.summary().find("decreases"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The optimizer under a session: counters reconcile with EvaluatorStats,
// and tracing never changes the result.

struct OptimizerScenario {
  Soc soc;
  TestTimeTable table;
  SiTestSet tests;
};

OptimizerScenario optimizer_scenario() {
  SynthSocConfig soc_config;
  soc_config.cores = 8;
  soc_config.name = "obs-synth";
  Rng rng(0x5157ULL);
  Soc soc = generate_soc(soc_config, rng);
  TestTimeTable table(soc, 12);
  SiTestSet tests;
  tests.parts = 1;
  for (int g = 0; g < 4; ++g) {
    SiTestGroup group;
    group.label = 'g' + std::to_string(g + 1);
    group.cores = {g, (g + 3) % soc.core_count()};
    std::sort(group.cores.begin(), group.cores.end());
    group.patterns = 40 + 15 * g;
    group.raw_patterns = group.patterns;
    tests.groups.push_back(std::move(group));
  }
  return OptimizerScenario{std::move(soc), std::move(table),
                           std::move(tests)};
}

TEST(Obs, EvaluatorCountersReconcileWithReturnedStats) {
  const OptimizerScenario s = optimizer_scenario();
  OptimizerConfig config;
  config.restarts = 2;
  obs::TraceSession session;
  const OptimizeResult result =
      optimize_tam(s.soc, s.table, s.tests, 12, config);
  const TraceDump dump = session.stop();

  // EvaluatorStats is a view over the same probes the registry aggregates:
  // the session-wide counters must equal the stats summed over restarts.
  EXPECT_GT(result.stats.evaluations, 0);
  EXPECT_EQ(dump.metrics.counter("tam.evaluator.evaluations"),
            result.stats.evaluations);
  EXPECT_EQ(result.stats.cache_hits, 0);
  EXPECT_EQ(dump.metrics.counter("tam.evaluator.delta_hits"),
            result.stats.delta_hits);
  EXPECT_EQ(dump.metrics.counter("tam.evaluator.cache_misses"),
            result.stats.cache_misses);
  EXPECT_EQ(dump.metrics.counter("tam.evaluator.delta_hits") +
                dump.metrics.counter("tam.evaluator.cache_misses"),
            dump.metrics.counter("tam.evaluator.evaluations"));
  EXPECT_EQ(dump.metrics.counter("tam.optimizer.restarts"), 2);
}

TEST(Obs, Alg2StageSpansOncePerRestartInsideIt) {
  const OptimizerScenario s = optimizer_scenario();
  OptimizerConfig config;
  config.restarts = 3;
  config.threads = 2;
  obs::TraceSession session;
  (void)optimize_tam(s.soc, s.table, s.tests, 12, config);
  const TraceDump dump = session.stop();

  const std::vector<std::string> stages = {
      "tam.alg2.start", "tam.alg2.bottom_up", "tam.alg2.top_down",
      "tam.alg2.sweep", "tam.alg2.reshuffle"};
  std::map<std::string, int> inside_a_restart;
  for (const obs::TrackDump& track : dump.tracks) {
    for (const obs::SpanEvent& span : track.spans) {
      const std::string name = span.name;
      if (name.rfind("tam.alg2.", 0) != 0) continue;
      for (const obs::SpanEvent& outer : track.spans) {
        if (std::string_view(outer.name) == "tam.optimizer.restart" &&
            outer.begin_ns <= span.begin_ns && span.end_ns <= outer.end_ns) {
          ++inside_a_restart[name];
          break;
        }
      }
    }
  }
  ASSERT_EQ(inside_a_restart.size(), stages.size());
  for (const std::string& stage : stages) {
    EXPECT_EQ(inside_a_restart[stage], 3) << stage;
  }
  // Deferred Algorithm 1 replays run only for schedule reads, so there are
  // some, and never more than delta hits.
  EXPECT_GT(dump.metrics.counter("tam.delta.replays"), 0);
  EXPECT_LE(dump.metrics.counter("tam.delta.replays"),
            dump.metrics.counter("tam.evaluator.delta_hits"));
}

TEST(Obs, TracingDoesNotChangeOptimizationResults) {
  const OptimizerScenario s = optimizer_scenario();
  OptimizerConfig config;
  config.restarts = 2;
  config.threads = 2;
  const OptimizeResult untraced =
      optimize_tam(s.soc, s.table, s.tests, 12, config);

  obs::TraceSession session;
  const OptimizeResult traced =
      optimize_tam(s.soc, s.table, s.tests, 12, config);
  (void)session.stop();

  EXPECT_EQ(traced.evaluation.t_soc, untraced.evaluation.t_soc);
  EXPECT_EQ(traced.architecture.describe(), untraced.architecture.describe());
  EXPECT_EQ(traced.stats.evaluations, untraced.stats.evaluations);
}

TEST(Obs, CompactionCountersReconcileWithTheResult) {
  // One class per greedy round, so `rounds` equals the compacted count;
  // `block_probes` counts the 64-class blocks the candidates tested.
  const Soc soc = load_benchmark("d695");
  const TerminalSpace ts(soc);
  Rng rng(0xc0c0ULL);
  const RandomPatternConfig config;
  const auto patterns = generate_random_patterns(ts, 1500, config, rng);
  obs::TraceSession session;
  const CompactionResult result =
      compact_greedy(patterns, ts.total(), config.bus_width);
  const TraceDump dump = session.stop();

  const auto out = static_cast<std::int64_t>(result.patterns.size());
  EXPECT_EQ(dump.metrics.counter("pattern.compaction.patterns_in"), 1500);
  EXPECT_EQ(dump.metrics.counter("pattern.compaction.patterns_out"), out);
  EXPECT_EQ(dump.metrics.counter("pattern.compaction.rounds"),
            dump.metrics.counter("pattern.compaction.patterns_out"));
  // One class-range stage per kCompactionStageClasses classes, at least
  // one.
  const auto stage = static_cast<std::int64_t>(kCompactionStageClasses);
  EXPECT_EQ(dump.metrics.counter("pattern.compaction.stages"),
            std::max<std::int64_t>(1, (out + stage - 1) / stage));
  // Every candidate after the first tests at least one block and at most
  // all of them.
  const std::int64_t probes =
      dump.metrics.counter("pattern.compaction.block_probes");
  EXPECT_GE(probes, 1500 - 1);
  EXPECT_LE(probes, 1500 * ((out + 63) / 64));
}

TEST(Obs, TracedPrepareShowsTheGroupingSchedule) {
  // One index pass, one partition per grouping i > 1, and one compaction
  // span per non-empty group, whose arg is the group's raw pattern count.
  // With pool workers, the i = 1 compaction and the care-set index stream:
  // their spans start before the draw that feeds them ends.
  const Soc soc = load_benchmark("d695");
  SiWorkloadConfig config;
  config.pattern_count = 10000;
  config.groupings = {1, 2, 4, 8};
  obs::TraceSession session;
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const TraceDump dump = session.stop();

  std::vector<obs::SpanEvent> index;
  std::vector<std::int64_t> partitions;
  std::vector<std::int64_t> compactions;
  std::vector<obs::SpanEvent> generate;
  std::vector<obs::SpanEvent> single;  // the i = 1 compaction
  for (const obs::TrackDump& track : dump.tracks) {
    for (const obs::SpanEvent& span : track.spans) {
      const std::string_view name = span.name;
      if (name == "sitest.index") index.push_back(span);
      if (name == "sitest.partition") partitions.push_back(span.arg);
      if (name == "sitest.compact") compactions.push_back(span.arg);
      if (name == "sitest.compact" && span.arg == config.pattern_count) {
        single.push_back(span);
      }
      if (name == "flow.workload.generate") generate.push_back(span);
    }
  }
  ASSERT_EQ(index.size(), 1u);
  EXPECT_EQ(index.front().arg, config.pattern_count);
  std::sort(partitions.begin(), partitions.end());
  EXPECT_EQ(partitions, (std::vector<std::int64_t>{2, 4, 8}));
  std::vector<std::int64_t> groups;
  for (const int parts : config.groupings) {
    for (const SiTestGroup& group : workload.tests(parts).groups) {
      groups.push_back(group.raw_patterns);
    }
  }
  std::sort(groups.begin(), groups.end());
  std::sort(compactions.begin(), compactions.end());
  EXPECT_EQ(compactions, groups);

  ASSERT_EQ(generate.size(), 1u);
  EXPECT_EQ(generate.front().arg, config.pattern_count);
  ASSERT_EQ(single.size(), 1u);
  if (ThreadPool::hardware_threads() >= 2) {
    EXPECT_LT(single.front().begin_ns, generate.front().end_ns)
        << "the i = 1 compaction waited for the whole draw";
    EXPECT_LT(index.front().begin_ns, generate.front().end_ns)
        << "the care-set index waited for the whole draw";
  }
}

TEST(Obs, TracedSweepShowsOneJobSpanPerJobOnItsWorker) {
  // run_sweep's job list: one flow.sweep.tables span for the wrapper
  // tables, then one flow.sweep.job span per (width, job) at one restart,
  // arg = grouping i (0 = the baseline), each wrapping its restart span on
  // the same track.
  const Soc soc = load_benchmark("d695");
  SiWorkloadConfig config;
  config.pattern_count = 500;
  config.groupings = {1, 2};
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  OptimizerConfig optimizer;
  optimizer.threads = 2;
  obs::TraceSession session;
  const SweepResult sweep = run_sweep(workload, {8, 16, 24}, optimizer);
  const TraceDump dump = session.stop();
  ASSERT_EQ(sweep.rows.size(), 3u);

  std::vector<std::int64_t> tables;
  std::vector<std::int64_t> jobs;
  std::int64_t jobs_with_a_restart = 0;
  for (const obs::TrackDump& track : dump.tracks) {
    for (const obs::SpanEvent& span : track.spans) {
      const std::string_view name = span.name;
      if (name == "flow.sweep.tables") tables.push_back(span.arg);
      if (name != "flow.sweep.job") continue;
      jobs.push_back(span.arg);
      for (const obs::SpanEvent& inner : track.spans) {
        if (std::string_view(inner.name) == "tam.optimizer.restart" &&
            inner.begin_ns >= span.begin_ns && inner.end_ns <= span.end_ns) {
          ++jobs_with_a_restart;
          break;
        }
      }
    }
  }
  EXPECT_EQ(tables, (std::vector<std::int64_t>{3}));
  std::sort(jobs.begin(), jobs.end());
  EXPECT_EQ(jobs, (std::vector<std::int64_t>{0, 0, 0, 1, 1, 1, 2, 2, 2}));
  EXPECT_EQ(jobs_with_a_restart, 9);
}

// Satellite: the empty-stats guard in render_evaluator_stats must not
// divide by zero and must say explicitly that the evaluator never ran.
TEST(Report, RenderEvaluatorStatsGuardsZeroEvaluations) {
  EXPECT_EQ(render_evaluator_stats(EvaluatorStats{}),
            "0 evaluations (evaluator never invoked)");
  EvaluatorStats stats;
  stats.evaluations = 4;
  stats.delta_hits = 3;
  stats.cache_misses = 1;
  const std::string line = render_evaluator_stats(stats);
  EXPECT_EQ(line,
            "4 evaluations: 3 delta hits + 1 full ScheduleSITest runs "
            "(75.0 % avoided)");
  EXPECT_EQ(line.find("never invoked"), std::string::npos);
}

}  // namespace
}  // namespace sitam
