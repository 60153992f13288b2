#include "core/flow.h"

#include <algorithm>
#include <future>
#include <limits>
#include <stdexcept>

#include "obs/obs.h"
#include "pattern/compaction.h"
#include "util/check.h"
#include "util/log.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sitam {

std::uint64_t workload_config_hash(const Soc& soc,
                                   const SiWorkloadConfig& config) {
  // Hash the generator parameters so any change invalidates the key.
  std::uint64_t h = config.seed;
  const auto mix = [&h](std::uint64_t value) { hash_mix(h, value); };
  mix(static_cast<std::uint64_t>(config.pattern_count));
  mix(static_cast<std::uint64_t>(config.patterns.min_aggressors));
  mix(static_cast<std::uint64_t>(config.patterns.max_aggressors));
  mix(static_cast<std::uint64_t>(config.patterns.min_external_aggressors));
  mix(static_cast<std::uint64_t>(config.patterns.max_external_aggressors));
  mix(static_cast<std::uint64_t>(config.patterns.locality_window));
  mix(static_cast<std::uint64_t>(config.patterns.external_core_ring));
  mix(config.patterns.quiet_neighbors ? 1 : 0);
  mix(static_cast<std::uint64_t>(config.patterns.bus_width));
  mix(static_cast<std::uint64_t>(config.patterns.bus_use_probability *
                                 1e6));
  // The groupings and the grouping/partition knobs change the compacted
  // test sets, so SitamContext's workload tier, keyed by this hash alone,
  // must not serve a workload prepared under different ones.
  mix(config.groupings.size());
  for (const int parts : config.groupings) {
    mix(static_cast<std::uint64_t>(parts));
  }
  mix(static_cast<std::uint64_t>(config.grouping.bus_width));
  mix(static_cast<std::uint64_t>(config.grouping.partition.epsilon * 1e6));
  mix(static_cast<std::uint64_t>(config.grouping.partition.random_starts));
  mix(static_cast<std::uint64_t>(config.grouping.partition.max_fm_passes));
  mix(static_cast<std::uint64_t>(config.grouping.partition.coarsen_limit));
  mix(config.grouping.partition.seed);
  // Include the SOC's structure, not just its name.
  mix(soc_structure_hash(soc));
  return h;
}

SiWorkload::SiWorkload(Soc soc, SiWorkloadConfig config)
    : soc_(std::move(soc)), config_(std::move(config)), terminals_(soc_) {}

SiWorkload SiWorkload::prepare(const Soc& soc, const SiWorkloadConfig& config,
                               const CancelToken* cancel) {
  validate(soc);
  check_cancel(cancel);
  if (config.groupings.empty()) {
    throw std::invalid_argument("SiWorkload: groupings must not be empty");
  }
  for (const int parts : config.groupings) {
    if (parts < 1) {
      throw std::invalid_argument("SiWorkload: grouping parts must be >= 1");
    }
  }
  if (config.pattern_count < 0) {
    throw std::invalid_argument("SiWorkload: negative pattern count");
  }

  SiWorkload workload(soc, config);
  GroupingConfig grouping = config.grouping;
  grouping.bus_width = std::max(grouping.bus_width, config.patterns.bus_width);
  grouping.partition.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;

  {
    // One pipeline over the raw set for all groupings: the §5 draw writes
    // chunks on a pool worker while this thread's care-set index interns
    // them and encodes their kernel rows, and the i = 1 compaction places
    // the rows on the other workers. A single grouping's pipeline stays on
    // this thread.
    SITAM_TRACE_SPAN_ARG("flow.workload.compact",
                         static_cast<std::int64_t>(config.groupings.size()));
    RawPatternStore raw;
    Executor executor(config.parallel_prepare && config.groupings.size() > 1
                          ? ThreadPool::hardware_threads()
                          : 1);
    Rng rng(config.seed);
    workload.test_sets_ = build_si_test_sets(
        raw,
        [&] {
          SITAM_TRACE_SPAN_ARG("flow.workload.generate",
                               config.pattern_count);
          draw_random_patterns(workload.terminals_, config.pattern_count,
                               config.patterns, rng, raw);
        },
        workload.terminals_, config.groupings, grouping, executor, cancel);
  }
  check_cancel(cancel);
  for (std::size_t i = 0; i < workload.test_sets_.size(); ++i) {
    SITAM_INFO << "workload " << soc.name << " N_r=" << config.pattern_count
               << " parts=" << config.groupings[i] << ": "
               << workload.test_sets_[i].total_patterns()
               << " compacted patterns in "
               << workload.test_sets_[i].groups.size() << " groups";
  }
  return workload;
}

const SiTestSet& SiWorkload::tests(int parts) const {
  for (std::size_t i = 0; i < config_.groupings.size(); ++i) {
    if (config_.groupings[i] == parts) return test_sets_[i];
  }
  throw std::out_of_range("SiWorkload: grouping " + std::to_string(parts) +
                          " was not prepared");
}

double ExperimentOutcome::delta_baseline_pct() const {
  if (t_baseline == 0) return 0.0;
  return 100.0 * static_cast<double>(t_baseline - t_min) /
         static_cast<double>(t_baseline);
}

double ExperimentOutcome::delta_g_pct() const {
  if (per_grouping.empty()) return 0.0;
  const std::int64_t t_g1 = per_grouping.front().evaluation.t_soc;
  if (t_g1 == 0) return 0.0;
  return 100.0 * static_cast<double>(t_g1 - t_min) /
         static_cast<double>(t_g1);
}

ExperimentOutcome run_experiment(const SiWorkload& workload, int w_max,
                                 const OptimizerConfig& config) {
  if (w_max < 1) {
    throw std::invalid_argument("run_experiment: w_max must be >= 1");
  }
  return std::move(run_sweep(workload, {w_max}, config).rows.front());
}

SweepResult run_sweep(const SiWorkload& workload,
                      const std::vector<int>& widths,
                      const OptimizerConfig& config) {
  for (const int w : widths) {
    if (w < 1) throw std::invalid_argument("run_sweep: w_max must be >= 1");
  }
  check_cancel(config.cancel);
  const Soc& soc = workload.soc();
  const std::vector<int>& groupings = workload.groupings();
  // Per width: the baseline job, then one job per grouping.
  const std::size_t per_width = groupings.size() + 1;
  Executor executor(ThreadPool::workers_for(
      config.threads, widths.size() * per_width *
                          static_cast<std::size_t>(
                              std::max(1, config.restarts))));

  std::vector<TestTimeTable> tables;
  tables.reserve(widths.size());
  {
    SITAM_TRACE_SPAN_ARG("flow.sweep.tables",
                         static_cast<std::int64_t>(widths.size()));
    std::vector<std::future<TestTimeTable>> built;
    built.reserve(widths.size());
    for (const int w : widths) {
      built.push_back(executor.submit([&soc, w] {
        SITAM_TRACE_SPAN_ARG("wrapper.table", w);
        return TestTimeTable(soc, w);
      }));
    }
    for (std::future<TestTimeTable>& table : built) {
      tables.push_back(table.get());
    }
  }

  // Baseline T_[8]: an InTest-only TR-Architect run. T_g_i: the SI-aware
  // optimizer per grouping. Every restart of every job runs on one pool.
  static const SiTestSet kNoTests{};
  std::vector<OptimizeJob> jobs;
  jobs.reserve(widths.size() * per_width);
  for (std::size_t k = 0; k < widths.size(); ++k) {
    jobs.push_back({&tables[k], &kNoTests, widths[k], "flow.sweep.job", 0});
    for (const int parts : groupings) {
      jobs.push_back({&tables[k], &workload.tests(parts), widths[k],
                      "flow.sweep.job", parts});
    }
  }
  std::vector<OptimizeResult> results =
      optimize_tam_batch(soc, jobs, config, executor);

  SweepResult sweep;
  sweep.soc_name = soc.name;
  sweep.pattern_count = workload.raw_pattern_count();
  sweep.groupings = groupings;
  for (std::size_t k = 0; k < widths.size(); ++k) {
    ExperimentOutcome outcome;
    outcome.w_max = widths[k];
    // The fixed baseline architecture is scored against every grouping's
    // SI tests; the best grouping is credited to the baseline (most
    // charitable reading).
    outcome.baseline_architecture =
        std::move(results[k * per_width].architecture);
    outcome.t_baseline = std::numeric_limits<std::int64_t>::max();
    for (const int parts : groupings) {
      const TamEvaluator evaluator(soc, tables[k], workload.tests(parts));
      outcome.t_baseline = std::min(
          outcome.t_baseline,
          evaluator.evaluate(outcome.baseline_architecture).t_soc);
    }
    outcome.t_min = std::numeric_limits<std::int64_t>::max();
    for (std::size_t g = 0; g < groupings.size(); ++g) {
      OptimizeResult& result = results[k * per_width + 1 + g];
      if (result.evaluation.t_soc < outcome.t_min) {
        outcome.t_min = result.evaluation.t_soc;
        outcome.best_grouping = groupings[g];
      }
      outcome.per_grouping.push_back(std::move(result));
    }
    SITAM_INFO << "sweep " << sweep.soc_name << ": W_max=" << widths[k]
               << " T_min=" << outcome.t_min;
    sweep.rows.push_back(std::move(outcome));
  }
  return sweep;
}

}  // namespace sitam
