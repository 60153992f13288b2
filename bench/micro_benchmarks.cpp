// google-benchmark microbenchmarks for the library's hot paths: wrapper
// design, pattern generation, greedy compaction, hypergraph partitioning,
// architecture evaluation (incl. Algorithm 1 scheduling) and the full
// Algorithm 2 optimizer — serial and parallel.
//
// Before the registered benchmarks run, main() measures the multi-restart
// Algorithm 2 optimizer as the plain serial paper implementation vs the
// full accelerated stack (restart pool + delta evaluation) and
// writes the comparison to BENCH_parallel.json in the working directory
// (skip with --no_parallel_report).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "compaction_oracle.h"
#include "core/flow.h"
#include "obs/manifest.h"
#include "obs/obs.h"
#include "hypergraph/partition.h"
#include "interconnect/terminal_space.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "sitest/group.h"
#include "soc/benchmarks.h"
#include "tam/annealing.h"
#include "tam/evaluator.h"
#include "tam/exhaustive.h"
#include "tam/optimizer.h"
#include "tam/rectpack.h"
#include "tam/verify.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"
#include "wrapper/design.h"

namespace {

using namespace sitam;

const Soc& p93791() {
  static const Soc soc = load_benchmark("p93791");
  return soc;
}

void BM_WrapperDesign(benchmark::State& state) {
  const Soc& soc = p93791();
  const Module& m = soc.module_by_id(6);  // the largest core
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(design_wrapper(m, width));
  }
}
BENCHMARK(BM_WrapperDesign)->Arg(1)->Arg(8)->Arg(32)->Arg(64);

void BM_TestTimeTable(benchmark::State& state) {
  const Soc& soc = p93791();
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(TestTimeTable(soc, width));
  }
}
BENCHMARK(BM_TestTimeTable)->Arg(16)->Arg(64);

void BM_PatternGeneration(benchmark::State& state) {
  const Soc& soc = p93791();
  const TerminalSpace ts(soc);
  const auto count = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        generate_random_patterns(ts, count, RandomPatternConfig{}, rng));
  }
  state.SetItemsProcessed(state.iterations() * count);
}
BENCHMARK(BM_PatternGeneration)->Arg(1000)->Arg(10000);

void BM_CompactGreedy(benchmark::State& state) {
  const Soc& soc = p93791();
  const TerminalSpace ts(soc);
  Rng rng(2);
  const RandomPatternConfig config;
  const auto patterns = generate_random_patterns(
      ts, static_cast<std::int64_t>(state.range(0)), config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compact_greedy(patterns, ts.total(), config.bus_width));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompactGreedy)->Arg(1000)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_CompactGreedyReference(benchmark::State& state) {
  // The frozen sparse sweep the block kernel is measured against.
  const Soc& soc = p93791();
  const TerminalSpace ts(soc);
  Rng rng(2);
  const RandomPatternConfig config;
  const auto patterns = generate_random_patterns(
      ts, static_cast<std::int64_t>(state.range(0)), config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sitam::testing::compact_greedy_reference(
        patterns, ts.total(), config.bus_width));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CompactGreedyReference)->Arg(1000)->Arg(5000)->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_CompactFirstFit(benchmark::State& state) {
  const Soc& soc = p93791();
  const TerminalSpace ts(soc);
  Rng rng(2);
  const RandomPatternConfig config;
  const auto patterns = generate_random_patterns(
      ts, static_cast<std::int64_t>(state.range(0)), config, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        compact_first_fit(patterns, ts.total(), config.bus_width));
  }
}
BENCHMARK(BM_CompactFirstFit)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_PartitionP93791(benchmark::State& state) {
  // The p93791 N_r = 10 000 core hypergraph (32 vertices, so FM runs
  // without coarsening) into k parts.
  const Soc& soc = p93791();
  const TerminalSpace ts(soc);
  Rng rng(3);
  const auto patterns =
      generate_random_patterns(ts, 10000, RandomPatternConfig{}, rng);
  const Hypergraph hg = build_core_hypergraph(patterns, ts);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(partition_hypergraph(hg, k));
  }
}
BENCHMARK(BM_PartitionP93791)->Arg(2)->Arg(4)->Arg(8);

void BM_BuildSiTestSet(benchmark::State& state) {
  const Soc& soc = p93791();
  const TerminalSpace ts(soc);
  Rng rng(4);
  const auto patterns =
      generate_random_patterns(ts, 5000, RandomPatternConfig{}, rng);
  const int parts = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        build_si_test_set(patterns, ts, parts, GroupingConfig{}));
  }
}
BENCHMARK(BM_BuildSiTestSet)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_BuildSiTestSets(benchmark::State& state) {
  // All four groupings of one 20 000-pattern set in the shared pass: one
  // care-set index and hypergraph, and every group's compaction in one
  // longest-first job list on `threads` workers.
  const Soc& soc = p93791();
  const TerminalSpace ts(soc);
  Rng rng(4);
  const auto patterns =
      generate_random_patterns(ts, 20000, RandomPatternConfig{}, rng);
  const int groupings[] = {1, 2, 4, 8};
  Executor executor(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_si_test_sets(
        patterns, ts, groupings, GroupingConfig{}, executor));
  }
  state.SetItemsProcessed(state.iterations() * 20000);
}
// Real time: the workers' CPU time is not the caller's.
BENCHMARK(BM_BuildSiTestSets)->ArgName("threads")->Arg(1)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

SiTestSet sample_tests(const Soc& soc, int parts) {
  const TerminalSpace ts(soc);
  Rng rng(5);
  const auto patterns =
      generate_random_patterns(ts, 5000, RandomPatternConfig{}, rng);
  return build_si_test_set(patterns, ts, parts, GroupingConfig{});
}

TamArchitecture eight_by_eight(const Soc& soc) {
  // A representative mid-optimization architecture: 8 rails of 8 wires.
  TamArchitecture arch;
  for (int r = 0; r < 8; ++r) {
    TestRail rail;
    rail.width = 8;
    for (int c = r; c < soc.core_count(); c += 8) rail.cores.push_back(c);
    arch.rails.push_back(std::move(rail));
  }
  return arch;
}

void BM_EvaluateArchitecture(benchmark::State& state) {
  const Soc& soc = p93791();
  const TestTimeTable table(soc, 64);
  const SiTestSet tests = sample_tests(soc, 8);
  const TamEvaluator evaluator(soc, table, tests);
  const TamArchitecture arch = eight_by_eight(soc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.evaluate(arch));
  }
}
BENCHMARK(BM_EvaluateArchitecture);

void BM_OptimizeTam(benchmark::State& state) {
  const Soc& soc = p93791();
  const int w = static_cast<int>(state.range(0));
  const TestTimeTable table(soc, w);
  const SiTestSet tests = sample_tests(soc, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_tam(soc, table, tests, w));
  }
}
BENCHMARK(BM_OptimizeTam)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_OptimizeTamRestarts(benchmark::State& state) {
  // 8 restarts at the given thread count; Arg(1) is the serial baseline
  // for the parallel speedup (results are identical by construction).
  const Soc& soc = p93791();
  const TestTimeTable table(soc, 32);
  const SiTestSet tests = sample_tests(soc, 4);
  OptimizerConfig config;
  config.restarts = 8;
  config.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_tam(soc, table, tests, 32, config));
  }
}
BENCHMARK(BM_OptimizeTamRestarts)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_Annealing(benchmark::State& state) {
  const Soc& soc = p93791();
  const TestTimeTable table(soc, 32);
  const SiTestSet tests = sample_tests(soc, 4);
  AnnealingConfig config;
  config.iterations = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimize_tam_annealing(soc, table, tests, 32, config));
  }
}
BENCHMARK(BM_Annealing)->Arg(10000)->Arg(60000)
    ->Unit(benchmark::kMillisecond);

void BM_RectanglePacking(benchmark::State& state) {
  const Soc& soc = p93791();
  const int w = static_cast<int>(state.range(0));
  const TestTimeTable table(soc, w);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pack_intest_rectangles(soc, table, w));
  }
}
BENCHMARK(BM_RectanglePacking)->Arg(16)->Arg(64);

void BM_VerifyEvaluation(benchmark::State& state) {
  const Soc& soc = p93791();
  const TestTimeTable table(soc, 32);
  const SiTestSet tests = sample_tests(soc, 8);
  const OptimizeResult result = optimize_tam(soc, table, tests, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verify_evaluation(
        soc, table, tests, result.architecture, result.evaluation));
  }
}
BENCHMARK(BM_VerifyEvaluation);

void BM_ExhaustiveMini5(benchmark::State& state) {
  const Soc soc = load_benchmark("mini5");
  const int w = static_cast<int>(state.range(0));
  const TestTimeTable table(soc, w);
  const SiTestSet tests = sample_tests(soc, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exhaustive_optimum(soc, table, tests, w));
  }
}
BENCHMARK(BM_ExhaustiveMini5)->Arg(4)->Arg(8)->Arg(12)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Observability overhead: the same probes with tracing off (no session, the
// single relaxed-load fast path) and on (recording into the thread buffer).
// ---------------------------------------------------------------------------

void BM_TraceProbesDisabled(benchmark::State& state) {
  std::int64_t acc = 0;
  for (auto _ : state) {
    SITAM_TRACE_SPAN("bench.obs.probe");
    SITAM_COUNTER("bench.obs.probe_count", 1);
    benchmark::DoNotOptimize(++acc);
  }
}
BENCHMARK(BM_TraceProbesDisabled);

void BM_TraceProbesEnabled(benchmark::State& state) {
  // Past the per-thread span capacity the session counts drops instead of
  // recording, so long runs measure the (cheaper) saturated path for spans
  // while counters keep their full cost.
  obs::TraceSession session;
  std::int64_t acc = 0;
  for (auto _ : state) {
    SITAM_TRACE_SPAN("bench.obs.probe");
    SITAM_COUNTER("bench.obs.probe_count", 1);
    benchmark::DoNotOptimize(++acc);
  }
  session.stop();
}
BENCHMARK(BM_TraceProbesEnabled);

void BM_OptimizeTamTraced(benchmark::State& state) {
  // Arg(0)=untraced, Arg(1)=active session: the pipeline-level cost of the
  // instrumentation on a real optimization (compare the two rows).
  const Soc& soc = p93791();
  const TestTimeTable table(soc, 32);
  const SiTestSet tests = sample_tests(soc, 4);
  std::optional<obs::TraceSession> session;
  if (state.range(0) != 0) session.emplace();
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimize_tam(soc, table, tests, 32));
  }
  if (session) session->stop();
}
BENCHMARK(BM_OptimizeTamTraced)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_parallel.json: serial vs parallel multi-start, delta hit rate, and
// one multi-grouping prepare on one thread vs the pool.
// ---------------------------------------------------------------------------

/// Every group's compacted pattern count, grouping by grouping.
std::vector<std::int64_t> grouping_patterns(const SiWorkload& workload) {
  std::vector<std::int64_t> counts;
  for (const int parts : workload.groupings()) {
    for (const SiTestGroup& group : workload.tests(parts).groups) {
      counts.push_back(group.patterns);
    }
  }
  return counts;
}

/// The "prepare" row: SiWorkload::prepare of p93791's N_r = 10 000 table
/// cell over the groupings {1, 2, 4, 8}, on the caller and on the pool
/// (hardware threads), min-of-N with the legs interleaved, plus the
/// partition tree's bisection counters from one traced pooled prepare.
void write_prepare_row(JsonWriter& json) {
  const Soc& soc = p93791();
  SiWorkloadConfig config;
  config.pattern_count = 10000;
  config.seed = 0x20070604ULL;  // the table binaries' seed
  config.groupings = {1, 2, 4, 8};
  SiWorkloadConfig serial = config;
  serial.parallel_prepare = false;

  constexpr int kReps = 20;
  double serial_seconds = std::numeric_limits<double>::infinity();
  double pool_seconds = std::numeric_limits<double>::infinity();
  std::vector<std::int64_t> serial_patterns;
  std::vector<std::int64_t> pool_patterns;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const bool pooled : {false, true}) {
      Stopwatch watch;
      const SiWorkload workload =
          SiWorkload::prepare(soc, pooled ? config : serial);
      double& best = pooled ? pool_seconds : serial_seconds;
      best = std::min(best, watch.seconds());
      if (rep == 0) {
        (pooled ? pool_patterns : serial_patterns) =
            grouping_patterns(workload);
      }
    }
  }
  obs::TraceSession session;
  (void)SiWorkload::prepare(soc, config);
  const obs::TraceDump dump = session.stop();

  json.key("prepare").begin_object();
  json.key("soc").value(soc.name);
  json.key("pattern_count").value(config.pattern_count);
  json.key("groupings").begin_array();
  for (const int parts : config.groupings) {
    json.value(std::int64_t{parts});
  }
  json.end_array();
  json.key("reps").value(std::int64_t{kReps});
  json.key("serial_seconds").value(serial_seconds);
  json.key("pool_threads").value(
      std::int64_t{ThreadPool::hardware_threads()});
  json.key("pool_seconds").value(pool_seconds);
  json.key("speedup").value(
      pool_seconds > 0.0 ? serial_seconds / pool_seconds : 0.0);
  json.key("bisections")
      .value(dump.metrics.counter("hypergraph.bisections"));
  json.key("bisections_shared")
      .value(dump.metrics.counter("hypergraph.bisections_shared"));
  json.key("results_identical").value(serial_patterns == pool_patterns);
  json.end_object();
  std::cout << "prepare p93791 N_r=10000 {1,2,4,8}: serial "
            << serial_seconds * 1e3 << " ms, pool "
            << pool_seconds * 1e3 << " ms\n";
}

void write_parallel_report(const std::string& path) {
  // Serial baseline vs the full accelerated stack on the multi-restart
  // Algorithm 2 optimizer. The baseline is the plain paper implementation:
  // one restart after another on one thread, every candidate scored by the
  // full timing model (no delta front-end). The accelerated leg
  // enables everything the repo builds on top: the restart pool (clamped
  // to the hardware — on a single-core host the pool contributes nothing
  // and the evaluation stack is the entire story) and the incremental
  // delta evaluator in front of the full one. The winner rule is
  // (t_soc, restart index), independent of the thread count and of the
  // scoring path, so both legs produce bit-identical results; the JSON
  // records every knob so the speedup is attributable. The restart loop —
  // not the annealing chains — is the subject because its mergeTAMs /
  // wire-redistribution probes re-score candidate after candidate without
  // copying architectures, which is exactly the move-heavy sequence the
  // delta path accelerates (the annealing loop spends its time copying
  // the candidate architecture, which no scoring stack can speed up).
  const Soc soc = load_benchmark("p93791");
  const int w_max = 32;
  const int restarts = 8;
  const TestTimeTable table(soc, w_max);
  const SiTestSet tests = sample_tests(soc, 8);

  OptimizerConfig serial;
  serial.restarts = restarts;
  serial.threads = 1;
  serial.delta_eval = false;

  // Oversubscribing a host with fewer cores than restarts measures
  // scheduler thrash, not the architecture: the pool is clamped to the
  // hardware and the JSON records the thread count that actually ran.
  const int pool_threads =
      std::max(1, std::min(restarts, ThreadPool::hardware_threads()));
  OptimizerConfig parallel = serial;
  parallel.threads = pool_threads;
  parallel.delta_eval = true;

  // Min-of-N timing per mode (first run doubles as the result used by the
  // identity check — the optimization is deterministic, so any run would
  // do). The minimum is the noise-robust estimator: interference only
  // ever adds time.
  constexpr int kReps = 3;
  double serial_seconds = std::numeric_limits<double>::infinity();
  OptimizeResult serial_result;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch watch;
    OptimizeResult result = optimize_tam(soc, table, tests, w_max, serial);
    serial_seconds = std::min(serial_seconds, watch.seconds());
    if (rep == 0) serial_result = std::move(result);
  }

  double parallel_seconds = std::numeric_limits<double>::infinity();
  OptimizeResult parallel_result;
  for (int rep = 0; rep < kReps; ++rep) {
    Stopwatch watch;
    OptimizeResult result = optimize_tam(soc, table, tests, w_max, parallel);
    parallel_seconds = std::min(parallel_seconds, watch.seconds());
    if (rep == 0) parallel_result = std::move(result);
  }

  obs::RunManifest manifest = obs::RunManifest::collect("micro_benchmarks");
  manifest.scenario = soc.name;
  manifest.seed = kRestartSeed;
  manifest.threads = parallel.threads;
  manifest.add_extra("restarts", std::to_string(restarts));

  JsonWriter json;
  json.begin_object();
  json.key("manifest");
  manifest.write(json);
  json.key("soc").value(soc.name);
  json.key("w_max").value(std::int64_t{w_max});
  json.key("restarts").value(std::int64_t{restarts});
  json.key("hardware_threads").value(
      std::int64_t{ThreadPool::hardware_threads()});
  json.key("serial").begin_object();
  json.key("threads").value(std::int64_t{1});
  json.key("delta_eval").value(false);
  json.key("seconds").value(serial_seconds);
  json.key("evaluations").value(serial_result.stats.evaluations);
  json.key("t_soc").value(serial_result.evaluation.t_soc);
  json.end_object();
  json.key("parallel").begin_object();
  json.key("threads").value(std::int64_t{pool_threads});
  json.key("delta_eval").value(true);
  json.key("seconds").value(parallel_seconds);
  json.key("evaluations").value(parallel_result.stats.evaluations);
  json.key("delta_hits").value(parallel_result.stats.delta_hits);
  // Delta hits over all evaluations: the fraction of scoring calls
  // that never ran the full timing model.
  json.key("hit_rate").value(parallel_result.stats.hit_rate());
  json.key("t_soc").value(parallel_result.evaluation.t_soc);
  json.end_object();
  json.key("speedup").value(
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0);
  json.key("results_identical")
      .value(serial_result.evaluation.t_soc ==
             parallel_result.evaluation.t_soc);
  write_prepare_row(json);
  json.end_object();

  std::ofstream out(path);
  out << json.str() << "\n";
  std::cout << "wrote " << path << ": serial " << serial_seconds
            << " s, parallel " << parallel_seconds << " s ("
            << serial_seconds / std::max(1e-9, parallel_seconds)
            << "x), delta hit rate "
            << 100.0 * parallel_result.stats.hit_rate() << " %\n";
}

// ---------------------------------------------------------------------------
// --trace_overhead_gate: exit-code guard on the cost of the obs subsystem.
// ---------------------------------------------------------------------------

/// Min-of-N interleaved traced vs untraced p34392 smoke sweeps, plus a
/// tight probe loop with no session active. Fails (exit 1) when an active
/// session costs more than 5% (+2 ms scheduling slack) on the sweep, when
/// a disabled probe costs more than a few ns, or when traced and untraced
/// runs stop being bit-identical.
int run_trace_overhead_gate() {
  const Soc soc = load_benchmark("p34392");
  SiWorkloadConfig config;
  config.pattern_count = 400;
  config.seed = 0x20070604;
  OptimizerConfig optimizer;
  optimizer.restarts = 2;
  optimizer.threads = 2;
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const std::vector<int> widths{8, 16};

  constexpr int kRounds = 7;
  double min_off = 1e300;
  double min_on = 1e300;
  std::int64_t t_off = 0;
  std::int64_t t_on = 0;
  for (int round = 0; round < kRounds; ++round) {
    {
      Stopwatch watch;
      const SweepResult sweep = run_sweep(workload, widths, optimizer);
      min_off = std::min(min_off, watch.seconds());
      t_off = sweep.rows.front().t_min;
    }
    {
      obs::TraceSession session;
      Stopwatch watch;
      const SweepResult sweep = run_sweep(workload, widths, optimizer);
      min_on = std::min(min_on, watch.seconds());
      session.stop();
      t_on = sweep.rows.front().t_min;
    }
  }

  // A disabled probe is one relaxed atomic load and a branch; per-probe
  // cost is bounded in absolute nanoseconds against an identical loop
  // without the probe.
  constexpr std::int64_t kProbes = 8'000'000;
  const auto probe_loop = [&](bool instrumented) {
    double best = 1e300;
    for (int round = 0; round < 5; ++round) {
      Stopwatch watch;
      std::int64_t acc = 0;
      if (instrumented) {
        for (std::int64_t i = 0; i < kProbes; ++i) {
          SITAM_COUNTER("bench.obs.gate_probe", 1);
          benchmark::DoNotOptimize(acc += i & 7);
        }
      } else {
        for (std::int64_t i = 0; i < kProbes; ++i) {
          benchmark::DoNotOptimize(acc += i & 7);
        }
      }
      best = std::min(best, watch.seconds());
    }
    return best;
  };
  const double base_loop = probe_loop(false);
  const double probe_ns = (probe_loop(true) - base_loop) * 1e9 /
                          static_cast<double>(kProbes);

  const double overhead_pct = 100.0 * (min_on - min_off) / min_off;
  std::cout << "trace_overhead_gate: sweep untraced " << min_off * 1e3
            << " ms, traced " << min_on * 1e3 << " ms (" << overhead_pct
            << " % overhead); disabled probe " << probe_ns << " ns\n";

  int failures = 0;
  if (t_on != t_off) {
    std::cerr << "trace_overhead_gate: FAIL: traced run changed the result ("
              << t_on << " != " << t_off << " cc)\n";
    ++failures;
  }
  if (min_on > min_off * 1.05 + 0.002) {
    std::cerr << "trace_overhead_gate: FAIL: active session costs "
              << overhead_pct << " % (> 5 % + 2 ms slack)\n";
    ++failures;
  }
  if (probe_ns > 5.0) {
    std::cerr << "trace_overhead_gate: FAIL: disabled probe costs "
              << probe_ns << " ns (> 5 ns)\n";
    ++failures;
  }
  if (failures == 0) std::cout << "trace_overhead_gate: OK\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool parallel_report = true;
  std::vector<char*> passthrough;
  passthrough.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--no_parallel_report") {
      parallel_report = false;
    } else if (std::string(argv[i]) == "--trace_overhead_gate") {
      return run_trace_overhead_gate();
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (parallel_report) write_parallel_report("BENCH_parallel.json");

  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
