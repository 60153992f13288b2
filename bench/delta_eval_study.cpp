// Incremental (delta) schedule evaluation study on the p93791 optimization
// workload: the full §5 sweep runs twice — once with the DeltaEvaluator in
// front of the full evaluator and once with the full evaluator alone — and
// the study checks that
//   (a) every optimization result is identical (the delta path is purely a
//       throughput switch; any divergence exits nonzero), and
//   (b) the delta path performs at least kMinFullRunRatio times fewer full
//       ScheduleSITest runs than the baseline.
// The plain run writes BENCH_delta.json into the working directory;
// `--smoke` runs a reduced workload with the same identity + ratio gates
// (no JSON artifact) so the check can live in the tier-1 ctest suite.
// `--wallclock_gate` additionally requires the delta sweep to beat the
// baseline by kMinWallClockSpeedup in seconds (min of kTimedRepetitions
// runs per mode, the modes interleaved, warm-ups excluded) and exits
// nonzero otherwise — registered as the `bench_wallclock_gate` ctest
// label. Neither mode writes the artifact, so running a gate from the
// repository root leaves the tracked BENCH_delta.json untouched. Any other
// flag is an error, so a mistyped gate flag cannot fall back to the plain
// run.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/flow.h"
#include "core/report.h"
#include "obs/manifest.h"
#include "soc/benchmarks.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/stopwatch.h"
#include "util/table.h"

using namespace sitam;

namespace {

/// The acceptance gate: the delta path must cut full ScheduleSITest runs by
/// at least this factor on the move-heavy optimizer workload. It was 3x
/// against a baseline whose evaluator memo answered 18 432 of its 58 471
/// evaluations; the baseline now runs all of them, so the factor is scaled
/// by 58 471 / 40 039 (the larger of the full and --smoke factors; --smoke's
/// is 2 724 / 2 137) to keep the same requirement.
constexpr double kMinFullRunRatio = 3.0 * 58471.0 / 40039.0;

/// The wall-clock gate (--wallclock_gate): delta mode must finish the sweep
/// at least this many times faster than the full-evaluation baseline, in
/// seconds. It was 1.5x against a baseline behind the evaluator memo;
/// without the memo that baseline ran 0.818x as long (median of 44
/// interleaved runs), so 1.5 * 0.818 keeps the old requirement
/// t_delta <= t_memo / 1.5.
constexpr double kMinWallClockSpeedup = 1.5 * 0.818;

/// Timed repetitions per mode, run interleaved (baseline, delta, baseline,
/// delta, ...) so that a burst of host load lands on both modes instead of
/// on one mode's whole block. The reported time is each mode's minimum —
/// the standard noise-robust estimator for a CPU-bound benchmark (every
/// source of interference only ever adds time, so the minimum is the best
/// estimate of the undisturbed run).
constexpr int kTimedRepetitions = 5;

struct ModeOutcome {
  double seconds = 0.0;
  EvaluatorStats stats;
  SweepResult sweep;
};

OptimizerConfig mode_config(bool delta_eval) {
  OptimizerConfig config;
  config.delta_eval = delta_eval;
  // One thread, as the manifest records: the study times the evaluator,
  // not the sweep's pool.
  config.threads = 1;
  return config;
}

/// A mode's untimed warm-up run: it pulls the workload into cache and is
/// the run whose results and stats the identity/ratio gates inspect (the
/// sweep is deterministic, so any repetition would do).
ModeOutcome warm_up(const SiWorkload& workload, const std::vector<int>& widths,
                    bool delta_eval) {
  ModeOutcome outcome;
  outcome.sweep = run_sweep(workload, widths, mode_config(delta_eval));
  for (const ExperimentOutcome& row : outcome.sweep.rows) {
    for (const OptimizeResult& result : row.per_grouping) {
      outcome.stats += result.stats;
    }
  }
  outcome.seconds = std::numeric_limits<double>::infinity();
  return outcome;
}

/// One timed run of a mode; keeps the minimum in `outcome.seconds`.
void time_mode(const SiWorkload& workload, const std::vector<int>& widths,
               bool delta_eval, ModeOutcome& outcome) {
  const OptimizerConfig config = mode_config(delta_eval);
  Stopwatch watch;
  (void)run_sweep(workload, widths, config);
  outcome.seconds = std::min(outcome.seconds, watch.seconds());
}

/// Field-by-field comparison of the two sweeps' optimization results.
bool sweeps_identical(const SweepResult& a, const SweepResult& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    const ExperimentOutcome& x = a.rows[r];
    const ExperimentOutcome& y = b.rows[r];
    if (x.t_baseline != y.t_baseline || x.t_min != y.t_min ||
        x.best_grouping != y.best_grouping ||
        x.per_grouping.size() != y.per_grouping.size()) {
      return false;
    }
    for (std::size_t g = 0; g < x.per_grouping.size(); ++g) {
      if (x.per_grouping[g].evaluation.t_soc !=
          y.per_grouping[g].evaluation.t_soc) {
        return false;
      }
    }
  }
  return true;
}

void write_report(const std::string& path, std::int64_t n_r,
                  const std::vector<int>& widths, const ModeOutcome& delta,
                  const ModeOutcome& baseline, double ratio,
                  bool identical) {
  obs::RunManifest manifest = obs::RunManifest::collect("delta_eval_study");
  manifest.scenario = "p93791";
  manifest.seed = SiWorkloadConfig{}.seed;
  manifest.threads = 1;
  manifest.add_extra("n_r", std::to_string(n_r));

  JsonWriter json;
  json.begin_object();
  json.key("manifest");
  manifest.write(json);
  json.key("benchmark")
      .value("incremental delta evaluation vs full evaluation");
  json.key("soc").value("p93791");
  json.key("n_r").value(n_r);
  json.key("widths").begin_array();
  for (const int w : widths) json.value(std::int64_t{w});
  json.end_array();
  json.key("baseline").begin_object();
  json.key("seconds").value(baseline.seconds);
  json.key("evaluations").value(baseline.stats.evaluations);
  json.key("full_schedule_runs").value(baseline.stats.full_evaluations());
  json.end_object();
  json.key("delta").begin_object();
  json.key("seconds").value(delta.seconds);
  json.key("evaluations").value(delta.stats.evaluations);
  json.key("delta_hits").value(delta.stats.delta_hits);
  json.key("delta_hit_rate").value(delta.stats.delta_hit_rate());
  json.key("full_schedule_runs").value(delta.stats.full_evaluations());
  json.end_object();
  json.key("timed_repetitions").value(std::int64_t{kTimedRepetitions});
  json.key("timing").value(
      "min of repetitions, modes interleaved, warm-ups excluded");
  json.key("full_run_ratio").value(ratio);
  json.key("min_wallclock_speedup").value(kMinWallClockSpeedup);
  json.key("speedup").value(delta.seconds > 0.0
                                ? baseline.seconds / delta.seconds
                                : 0.0);
  json.key("results_identical").value(identical);
  json.end_object();

  std::ofstream out(path);
  out << json.str() << "\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  args.require_known({"smoke", "wallclock_gate"});
  const bool smoke = args.has("smoke");
  const bool wallclock_gate = args.has("wallclock_gate");
  const std::int64_t n_r = smoke ? 500 : 10000;
  const std::vector<int> widths =
      smoke ? std::vector<int>{16} : std::vector<int>{16, 32, 48, 64};

  const Soc soc = load_benchmark("p93791");
  SiWorkloadConfig workload_config;
  workload_config.pattern_count = n_r;
  if (smoke) workload_config.groupings = {1, 2};
  const SiWorkload workload = SiWorkload::prepare(soc, workload_config);

  std::cout << "== p93791 TAM optimization: delta evaluation on vs off ==\n";
  const int repetitions = smoke ? 1 : kTimedRepetitions;
  ModeOutcome baseline = warm_up(workload, widths, false);
  ModeOutcome delta = warm_up(workload, widths, true);
  for (int rep = 0; rep < repetitions; ++rep) {
    time_mode(workload, widths, false, baseline);
    time_mode(workload, widths, true, delta);
  }

  TextTable table;
  table.add_column("mode", Align::kLeft);
  table.add_column("seconds");
  table.add_column("evaluations");
  table.add_column("delta hits");
  table.add_column("full runs");
  const auto add_row = [&](const std::string& mode, const ModeOutcome& m) {
    table.begin_row();
    table.cell(mode);
    table.cell(m.seconds, 3);
    table.cell(m.stats.evaluations);
    table.cell(m.stats.delta_hits);
    table.cell(m.stats.full_evaluations());
  };
  add_row("baseline (full)", baseline);
  add_row("delta", delta);
  std::cout << table;

  const double ratio =
      delta.stats.full_evaluations() > 0
          ? static_cast<double>(baseline.stats.full_evaluations()) /
                static_cast<double>(delta.stats.full_evaluations())
          : 0.0;
  const bool identical = sweeps_identical(baseline.sweep, delta.sweep);
  std::cout << "baseline: " << render_evaluator_stats(baseline.stats)
            << "\ndelta:    " << render_evaluator_stats(delta.stats)
            << "\nfull-ScheduleSITest-run ratio: " << ratio
            << "x (gate: >= " << kMinFullRunRatio << "x)\n";

  if (!smoke && !wallclock_gate) {
    write_report("BENCH_delta.json", n_r, widths, delta, baseline, ratio,
                 identical);
  }

  if (!identical) {
    std::cerr << "FAIL: delta evaluation changed an optimization result\n";
    return 1;
  }
  if (ratio < kMinFullRunRatio) {
    std::cerr << "FAIL: delta path only cut full ScheduleSITest runs by "
              << ratio << "x (need " << kMinFullRunRatio << "x)\n";
    return 1;
  }
  if (wallclock_gate) {
    const double speedup =
        delta.seconds > 0.0 ? baseline.seconds / delta.seconds : 0.0;
    std::cout << "wall-clock speedup: " << speedup << "x (gate: >= "
              << kMinWallClockSpeedup << "x)\n";
    if (speedup < kMinWallClockSpeedup) {
      std::cerr << "FAIL: delta path wall-clock speedup " << speedup
                << "x below the " << kMinWallClockSpeedup << "x gate\n";
      return 1;
    }
  }
  return 0;
} catch (const std::invalid_argument& err) {
  std::cerr << "error: " << err.what() << "\n";
  return 1;
}
