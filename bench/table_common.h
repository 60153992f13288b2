// Shared driver for the Table 2 / Table 3 bench binaries.
//
// Runs the full §5 protocol for one benchmark SOC: for each N_r it prepares
// the random SI workload, compacts it for every grouping i in {1,2,4,8},
// sweeps W_max over 8..64 (step 8) and prints the paper-style table. Every
// N_r cell runs in one job graph (run_protocol): the SOC's wrapper table
// and baseline jobs are built once, and the next cell's draw overlaps this
// cell's Algorithm 2 jobs.
//
// Flags:
//   --nr=10000,100000   initial interconnect pattern counts
//   --widths=8,16,...   TAM widths
//   --seed=N            workload seed
//   --csv               also dump CSV after each table
//   --fast              shrink N_r by 10x (CI-friendly smoke run)
//   --restarts=N        Algorithm 2 restarts per optimization
//   --threads=T         job-graph workers (default 0 = all cores,
//                       1 = serial; results are identical either way)
//   --no-delta          disable the incremental delta evaluator
//   --smoke             tiny traced-friendly run: N_r=400, widths {8,16},
//                       2 restarts on 2 threads (explicit flags still win)
//   --trace-out=FILE    write a Chrome trace-event JSON of the run
//   --metrics-out=FILE  write the counter/histogram metrics JSON
//   --store-out=FILE    append one result-store record per N_r sweep
//                       (see docs/RESULT_STORE.md; its `seconds` is the
//                       whole run's wall time); a failed append is a
//                       hard error, not a warning
#pragma once

#include <cstdint>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow.h"
#include "core/report.h"
#include "obs/export.h"
#include "soc/benchmarks.h"
#include "store/record.h"
#include "store/store.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace sitam::bench {

/// Builds the standard bench manifest from the parsed flags; `scenario`
/// names the SOC or study the binary drives.
inline obs::RunManifest bench_manifest(const CliArgs& args,
                                       const std::string& scenario,
                                       std::uint64_t seed, int threads) {
  obs::RunManifest manifest = obs::RunManifest::collect(args.program());
  manifest.scenario = scenario;
  manifest.seed = seed;
  manifest.threads = threads;
  return manifest;
}

/// Constructs the TraceEmitter for the standard --trace-out/--metrics-out
/// flags; inert (no session) when neither flag is present.
inline obs::TraceEmitter trace_emitter_from(const CliArgs& args,
                                            obs::RunManifest manifest) {
  return obs::TraceEmitter(args.get_or("trace-out", std::string()),
                           args.get_or("metrics-out", std::string()),
                           std::move(manifest));
}

/// Flags outside the list above are rejected before any work starts. A
/// rejected flag or value, like any std::invalid_argument the run raises,
/// prints "error: ..." and returns 1.
inline int run_table_bench(const std::string& soc_name, int argc,
                           char** argv) try {
  const CliArgs args(argc, argv);
  args.require_known({"nr", "widths", "seed", "csv", "fast", "restarts",
                      "threads", "no-delta", "smoke", "trace-out",
                      "metrics-out", "store-out"});
  const bool smoke = args.has("smoke");
  std::vector<std::int64_t> pattern_counts = args.get_list_or(
      "nr", smoke ? std::vector<std::int64_t>{400}
                  : std::vector<std::int64_t>{10000, 100000});
  const std::vector<std::int64_t> width_args = args.get_list_or(
      "widths", smoke ? std::vector<std::int64_t>{8, 16}
                      : std::vector<std::int64_t>{8, 16, 24, 32, 40, 48, 56,
                                                  64});
  const auto seed =
      static_cast<std::uint64_t>(args.get_or("seed", std::int64_t{0x20070604}));
  if (args.has("fast")) {
    for (auto& n : pattern_counts) n = std::max<std::int64_t>(100, n / 10);
  }
  std::vector<int> widths(width_args.begin(), width_args.end());

  OptimizerConfig optimizer;
  optimizer.restarts =
      static_cast<int>(args.get_or("restarts", std::int64_t{smoke ? 2 : 1}));
  optimizer.threads =
      static_cast<int>(args.get_or("threads", std::int64_t{smoke ? 2 : 0}));
  optimizer.delta_eval = !args.has("no-delta");

  obs::RunManifest manifest =
      bench_manifest(args, soc_name, seed, optimizer.threads);
  manifest.add_extra("restarts", std::to_string(optimizer.restarts));
  manifest.add_extra("delta_eval", optimizer.delta_eval ? "1" : "0");
  {
    std::string list;
    for (const auto n : pattern_counts) {
      if (!list.empty()) list += ',';
      list += std::to_string(n);
    }
    manifest.add_extra("nr", list);
    list.clear();
    for (const int w : widths) {
      if (!list.empty()) list += ',';
      list += std::to_string(w);
    }
    manifest.add_extra("widths", list);
  }
  obs::TraceEmitter emitter = trace_emitter_from(args, std::move(manifest));

  // --store-out: persistent per-sweep records for `sitam report` trends.
  const std::string store_out = args.get_or("store-out", std::string());
  std::unique_ptr<store::ResultStore> results;
  if (!store_out.empty()) {
    results = std::make_unique<store::ResultStore>(store_out);
  }

  const Soc soc = load_benchmark(soc_name);
  std::cout << "=== " << soc_name
            << ": SOC test architecture optimization for SI faults ===\n";
  std::cout << "cores: " << soc.core_count()
            << ", total WOC: " << soc.total_woc()
            << " bits, InTest volume: " << soc.total_test_data_volume()
            << " bits\n\n";

  std::vector<ProtocolCell> cells;
  for (const std::int64_t n_r : pattern_counts) {
    SiWorkloadConfig config;
    config.pattern_count = n_r;
    config.seed = seed;
    cells.push_back({soc, config});
  }
  Stopwatch watch;
  std::vector<ProtocolResult> protocol;
  {
    // Never more workers than Algorithm 2 units: per cell and width, the
    // baseline job and one job per grouping. Joined here, before the
    // trace session stops.
    Executor executor(ThreadPool::workers_for(
        optimizer.threads,
        cells.size() * widths.size() *
            (SiWorkloadConfig{}.groupings.size() + 1) *
            static_cast<std::size_t>(std::max(1, optimizer.restarts))));
    protocol = run_protocol(cells, widths, optimizer, executor);
  }
  const double seconds = watch.seconds();
  std::cout << "(one job graph for every N_r: workload generation, 2-D "
               "compaction and TAM optimization in "
            << seconds << " s)\n\n";

  for (const ProtocolResult& cell : protocol) {
    const SiWorkload& workload = cell.workload;
    const SweepResult& sweep = cell.sweep;
    const std::int64_t n_r = workload.raw_pattern_count();
    std::cout << "--- N_r = " << n_r << " ---\n";
    for (const int parts : workload.groupings()) {
      const SiTestSet& tests = workload.tests(parts);
      std::cout << "  grouping i=" << parts << ": "
                << tests.total_patterns() << " compacted SI patterns in "
                << tests.groups.size() << " groups\n";
    }
    std::cout << "\n";

    EvaluatorStats evals;
    for (const ExperimentOutcome& row : sweep.rows) {
      for (const OptimizeResult& result : row.per_grouping) {
        evals += result.stats;
      }
    }
    std::cout << sweep_caption(sweep) << "\n"
              << render_paper_table(sweep) << "("
              << render_evaluator_stats(evals) << ")\n\n";
    if (args.has("csv")) {
      std::cout << render_paper_table(sweep).csv() << "\n";
    }

    if (results != nullptr) {
      store::StoreRecord record;
      record.manifest =
          bench_manifest(args, soc_name, seed, optimizer.threads);
      record.manifest.add_extra("nr", std::to_string(n_r));
      record.manifest.add_extra("restarts",
                                std::to_string(optimizer.restarts));
      record.manifest.add_extra("delta_eval",
                                optimizer.delta_eval ? "1" : "0");
      record.scenario = soc_name + "/nr" + std::to_string(n_r);
      {
        std::string config = "delta=";
        config += optimizer.delta_eval ? '1' : '0';
        config += ";nr=" + std::to_string(n_r);
        config += ";restarts=" + std::to_string(optimizer.restarts);
        config += ";seed=" + std::to_string(seed);
        config += ";widths=";
        for (const int w : widths) config += std::to_string(w) + ",";
        record.config_hash = store::store_hash_hex(config);
      }
      record.metrics["seconds"] = seconds;
      record.metrics["evaluations"] =
          static_cast<double>(evals.evaluations);
      record.metrics["cache_misses"] =
          static_cast<double>(evals.cache_misses);
      record.metrics["delta_hit_rate"] = evals.delta_hit_rate();
      record.metrics["cache_hit_rate"] = evals.hit_rate();
      for (const ExperimentOutcome& row : sweep.rows) {
        const std::string prefix = 'w' + std::to_string(row.w_max);
        record.metrics[prefix + ".t_baseline"] =
            static_cast<double>(row.t_baseline);
        record.metrics[prefix + ".t_min"] = static_cast<double>(row.t_min);
      }
      {
        JsonWriter digest;
        digest.begin_object();
        for (const auto& [name, value] : record.metrics) {
          digest.kv(name, value);
        }
        digest.end_object();
        record.result_digest = store::store_hash_hex(digest.str());
      }
      if (!results->append(record)) {
        std::cerr << "error: store append failed for " << store_out << "\n";
        return 1;
      }
    }
  }
  return emitter.finish() ? 0 : 1;
} catch (const std::invalid_argument& err) {
  std::cerr << "error: " << err.what() << "\n";
  return 1;
}

}  // namespace sitam::bench
