// End-to-end observability gate (runs as the `bench_smoke_trace` ctest):
// executes a tiny traced p34392 sweep through the standard exporters, then
// checks that
//   (a) the Chrome trace file passes obs::verify_chrome_trace_file,
//   (b) the evaluator counters reconcile exactly
//       (delta_hits + cache_misses == evaluations),
//   (c) multiple per-thread tracks carry spans, including the compaction
//       and optimizer phases.
// Exits nonzero on any violation.
//
// Flags: --nr=N --trace-out=FILE --metrics-out=FILE
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow.h"
#include "obs/export.h"
#include "obs/trace_verify.h"
#include "soc/benchmarks.h"
#include "util/cli.h"

namespace {

using namespace sitam;

int fail(const std::string& message) {
  std::cerr << "smoke_trace_gate: FAIL: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  args.require_known({"trace-out", "metrics-out", "nr"});
  const std::string trace_path =
      args.get_or("trace-out", std::string("smoke_trace.json"));
  const std::string metrics_path =
      args.get_or("metrics-out", std::string("smoke_metrics.json"));

  const Soc soc = load_benchmark("p34392");
  SiWorkloadConfig config;
  config.pattern_count = args.get_or("nr", std::int64_t{400});
  config.seed = 0x20070604;
  OptimizerConfig optimizer;
  optimizer.restarts = 2;
  optimizer.threads = 2;

  obs::RunManifest manifest = obs::RunManifest::collect(args.program());
  manifest.scenario = soc.name;
  manifest.seed = config.seed;
  manifest.threads = optimizer.threads;
  manifest.add_extra("nr", std::to_string(config.pattern_count));
  obs::TraceEmitter emitter(trace_path, metrics_path, std::move(manifest));

  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const SweepResult sweep = run_sweep(workload, {8, 16}, optimizer);
  if (!emitter.finish()) return fail("could not write trace/metrics files");
  std::cout << "smoke_trace_gate: " << sweep.rows.size()
            << " sweep rows, best T_soc=" << sweep.rows.front().t_min
            << " cc\n";

  // (a) Structural validity of the Chrome trace.
  const obs::TraceVerifyResult verdict =
      obs::verify_chrome_trace_file(trace_path);
  std::cout << "smoke_trace_gate: " << verdict.summary() << "\n";
  if (!verdict.ok) {
    for (const std::string& problem : verdict.problems) {
      std::cerr << "  " << problem << "\n";
    }
    return fail("trace verification failed: " + trace_path);
  }
  if (verdict.span_events == 0) return fail("trace holds no spans");

  // (b) The counter identity every EvaluatorStats view must satisfy:
  // each evaluation resolves as exactly one of delta hit / full run.
  const obs::MetricsSnapshot& metrics = emitter.dump().metrics;
  const std::int64_t evaluations =
      metrics.counter("tam.evaluator.evaluations");
  const std::int64_t resolved = metrics.counter("tam.evaluator.delta_hits") +
                                metrics.counter("tam.evaluator.cache_misses");
  if (evaluations <= 0 || resolved != evaluations) {
    return fail("evaluator counters do not reconcile: delta hits+misses=" +
                std::to_string(resolved) + " vs evaluations=" +
                std::to_string(evaluations));
  }

  // (c) Per-thread tracks with the compaction and optimizer phases.
  int tracks_with_spans = 0;
  bool saw_optimizer = false;
  bool saw_compaction = false;
  for (const obs::TrackDump& track : emitter.dump().tracks) {
    if (track.spans.empty()) continue;
    ++tracks_with_spans;
    for (const obs::SpanEvent& span : track.spans) {
      const std::string name = span.name;
      if (name == "tam.optimizer.restart") saw_optimizer = true;
      if (name == "flow.workload.compact") saw_compaction = true;
    }
  }
  if (tracks_with_spans < 2) {
    return fail("expected spans on >= 2 threads, got " +
                std::to_string(tracks_with_spans));
  }
  if (!saw_optimizer) return fail("no tam.optimizer.restart span recorded");
  if (!saw_compaction) return fail("no flow.workload.compact span recorded");

  std::cout << "smoke_trace_gate: OK (" << tracks_with_spans
            << " active tracks, " << evaluations
            << " evaluations reconciled)\n";
  return 0;
} catch (const std::invalid_argument& err) {
  std::cerr << "error: " << err.what() << "\n";
  return 1;
}
