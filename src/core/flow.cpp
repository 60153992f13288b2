#include "core/flow.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
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

SiWorkload::SiWorkload(Soc soc, SiWorkloadConfig config,
                       std::vector<SiTestSet> test_sets)
    : soc_(std::move(soc)),
      config_(std::move(config)),
      terminals_(soc_),
      test_sets_(std::move(test_sets)) {}

const SiTestSet& SiWorkload::tests(int parts) const {
  for (std::size_t i = 0; i < config_.groupings.size(); ++i) {
    if (config_.groupings[i] == parts) return test_sets_[i];
  }
  throw std::out_of_range("SiWorkload: grouping " + std::to_string(parts) +
                          " was not prepared");
}

namespace {

/// Algorithm 2 units queue behind the prepare chain's tasks (draws,
/// partitions, compaction stages), which every later cell waits for.
/// Priorities reorder dispatch only, never a result.
constexpr JobPriority kUnitPriority = JobPriority::kLow;

void check_workload_config(const Soc& soc, const SiWorkloadConfig& config) {
  validate(soc);
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
}

/// One start of a batch job.
struct Unit {
  OptimizeBatch* batch = nullptr;
  std::size_t job = 0;
};

/// Starts `units`, widest W first (ties in list order).
void start_widest_first(std::vector<Unit> units, TaskGroup& group) {
  std::stable_sort(units.begin(), units.end(),
                   [](const Unit& a, const Unit& b) {
                     return a.batch->job(a.job).w_max >
                            b.batch->job(b.job).w_max;
                   });
  for (const Unit& unit : units) {
    unit.batch->start(unit.job, group, kUnitPriority);
  }
}

/// One SOC of a run: its wrapper table at the largest width, one task per
/// core row, and its TR-Architect baseline (Algorithm 2 on no SI tests)
/// per width, which starts with the grouping jobs that wait for the table.
struct SocNode {
  SocNode(const Soc& soc_in, const std::vector<int>& widths,
          const OptimizerConfig& config)
      : soc(soc_in),
        table(soc, *std::max_element(widths.begin(), widths.end()),
              TestTimeTable::kRowsLater),
        baselines(soc, baseline_jobs(table, widths), config),
        rows_left(soc.modules.size()) {}

  static std::vector<OptimizeJob> baseline_jobs(
      const TestTimeTable& table, const std::vector<int>& widths) {
    static const SiTestSet kNoTests{};
    std::vector<OptimizeJob> jobs;
    for (const int w : widths) {
      jobs.push_back({&table, &kNoTests, w, "flow.sweep.job", 0});
    }
    return jobs;
  }

  const Soc& soc;
  TestTimeTable table;
  OptimizeBatch baselines;
  /// The baseline architecture per width, once the graph has run.
  std::vector<TamArchitecture> baseline;
  std::optional<obs::ScopedSpan> span;  // wrapper.table, while rows build
  std::mutex mutex;
  std::size_t rows_left = 0;   // guarded_by(mutex)
  bool ready = false;          // guarded_by(mutex)
  std::vector<Unit> waiting;   // guarded_by(mutex): jobs ready before it
};

/// One (SOC, N_r) cell: its test sets and its grouping jobs, job
/// k * groupings + g for widths[k] and groupings[g].
struct CellNode {
  CellNode(const Soc& soc_in, SiWorkloadConfig config_in)
      : soc(soc_in), config(std::move(config_in)) {}

  const Soc& soc;
  SiWorkloadConfig config;
  SocNode* soc_node = nullptr;  // null when the run has no widths
  std::vector<SiTestSet> owned;  // the sets the graph prepares
  std::vector<const SiTestSet*> tests;
  std::optional<OptimizeBatch> jobs;
};

/// The job graph of run_protocol, also run by SiWorkload::prepare (one
/// cell, no widths) and run_sweep (one prepared cell).
class ProtocolGraph {
 public:
  ProtocolGraph(std::vector<int> widths, const OptimizerConfig& config,
                const CancelToken* prepare_cancel)
      : widths_(std::move(widths)),
        config_(config),
        prepare_cancel_(prepare_cancel) {
    for (const int w : widths_) {
      if (w < 1) throw std::invalid_argument("sweep: w_max must be >= 1");
    }
  }

  /// A cell the graph prepares; `soc` must outlive the graph.
  CellNode& add(const Soc& soc, const SiWorkloadConfig& config) {
    check_workload_config(soc, config);
    CellNode& cell = add_cell(soc, config);
    cell.owned.resize(config.groupings.size());
    for (const SiTestSet& set : cell.owned) cell.tests.push_back(&set);
    add_jobs(cell);
    return cell;
  }

  /// A prepared cell; `workload` must outlive the graph.
  CellNode& add(const SiWorkload& workload) {
    CellNode& cell = add_cell(workload.soc(), workload.config());
    for (const int parts : workload.groupings()) {
      cell.tests.push_back(&workload.tests(parts));
    }
    add_jobs(cell);
    return cell;
  }

  /// Runs every job on `executor` and waits for all of them.
  void run(Executor& executor) {
    TaskGroup group(executor);
    // A prepared cell's groupings wait for the table, so they start with
    // the baselines, all widest first.
    for (CellNode& cell : cells_) {
      if (cell.owned.empty()) {
        for (std::size_t g = 0; g < cell.tests.size(); ++g) {
          grouping_ready(cell, g, group);
        }
      }
    }
    for (SocNode& node : socs_) start_table(node, group);
    for (CellNode& cell : cells_) {
      if (!cell.owned.empty()) prepare(cell, group);
    }
    group.wait();
    for (SocNode& node : socs_) {
      for (std::size_t k = 0; k < widths_.size(); ++k) {
        node.baseline.push_back(node.baselines.take(k).architecture);
      }
    }
  }

  [[nodiscard]] std::deque<CellNode>& cells() { return cells_; }

  /// Cell `cell`'s rows, once run() has returned; once per cell.
  [[nodiscard]] SweepResult sweep(CellNode& cell) const {
    const std::vector<int>& groupings = cell.config.groupings;
    SweepResult sweep;
    sweep.soc_name = cell.soc.name;
    sweep.pattern_count = cell.config.pattern_count;
    sweep.groupings = groupings;
    for (std::size_t k = 0; k < widths_.size(); ++k) {
      ExperimentOutcome outcome;
      outcome.w_max = widths_[k];
      // The fixed baseline architecture is scored against every
      // grouping's SI tests; the best grouping is credited to the
      // baseline (most charitable reading).
      outcome.baseline_architecture = cell.soc_node->baseline[k];
      outcome.t_baseline = std::numeric_limits<std::int64_t>::max();
      for (const SiTestSet* tests : cell.tests) {
        const TamEvaluator evaluator(cell.soc, cell.soc_node->table, *tests);
        outcome.t_baseline = std::min(
            outcome.t_baseline,
            evaluator.evaluate(outcome.baseline_architecture).t_soc);
      }
      outcome.t_min = std::numeric_limits<std::int64_t>::max();
      for (std::size_t g = 0; g < groupings.size(); ++g) {
        OptimizeResult result = cell.jobs->take(k * groupings.size() + g);
        if (result.evaluation.t_soc < outcome.t_min) {
          outcome.t_min = result.evaluation.t_soc;
          outcome.best_grouping = groupings[g];
        }
        outcome.per_grouping.push_back(std::move(result));
      }
      SITAM_INFO << "sweep " << sweep.soc_name << ": W_max=" << widths_[k]
                 << " T_min=" << outcome.t_min;
      sweep.rows.push_back(std::move(outcome));
    }
    return sweep;
  }

 private:
  CellNode& add_cell(const Soc& soc, const SiWorkloadConfig& config) {
    CellNode& cell = cells_.emplace_back(soc, config);
    if (widths_.empty()) return cell;
    for (SocNode& node : socs_) {
      if (node.soc == soc) cell.soc_node = &node;
    }
    if (cell.soc_node == nullptr) {
      cell.soc_node = &socs_.emplace_back(soc, widths_, config_);
    }
    return cell;
  }

  void add_jobs(CellNode& cell) {
    if (cell.soc_node == nullptr) return;
    std::vector<OptimizeJob> jobs;
    for (const int w : widths_) {
      for (std::size_t g = 0; g < cell.tests.size(); ++g) {
        jobs.push_back({&cell.soc_node->table, cell.tests[g], w,
                        "flow.sweep.job", cell.config.groupings[g]});
      }
    }
    cell.jobs.emplace(cell.soc, std::move(jobs), config_);
  }

  /// The table's row tasks, at t = 0.
  void start_table(SocNode& node, TaskGroup& group) {
    node.span.emplace("wrapper.table", node.table.max_width());
    for (int c = 0; c < node.soc.core_count(); ++c) {
      group.run(JobPriority::kNormal, [&node, &group, c] {
        node.table.fill_row(node.soc, c);
        std::vector<Unit> waiting;
        {
          const std::lock_guard<std::mutex> lock(node.mutex);
          if (--node.rows_left > 0) return;
          node.ready = true;
          waiting = std::move(node.waiting);
        }
        node.span.reset();
        std::vector<Unit> units;
        for (std::size_t k = 0; k < node.baselines.size(); ++k) {
          units.push_back({&node.baselines, k});
        }
        units.insert(units.end(), waiting.begin(), waiting.end());
        start_widest_first(std::move(units), group);
      });
    }
  }

  /// Grouping g of `cell` has its tests: its jobs start, widest first, or
  /// wait for the table.
  void grouping_ready(CellNode& cell, std::size_t g, TaskGroup& group) {
    if (cell.soc_node == nullptr) return;
    std::vector<Unit> units;
    for (std::size_t k = 0; k < widths_.size(); ++k) {
      units.push_back({&*cell.jobs, k * cell.tests.size() + g});
    }
    {
      const std::lock_guard<std::mutex> lock(cell.soc_node->mutex);
      if (!cell.soc_node->ready) {
        cell.soc_node->waiting.insert(cell.soc_node->waiting.end(),
                                      units.begin(), units.end());
        return;
      }
    }
    start_widest_first(std::move(units), group);
  }

  /// The cell's pass: the draw on a worker (with no pool, first), the
  /// index on this thread, and the partitions and counts as tasks, each
  /// grouping's jobs started as its last count lands. Returns once the
  /// pass's rows are freed.
  void prepare(CellNode& cell, TaskGroup& group) {
    const SiWorkloadConfig& config = cell.config;
    GroupingConfig grouping = config.grouping;
    grouping.bus_width =
        std::max(grouping.bus_width, config.patterns.bus_width);
    grouping.partition.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
    SITAM_TRACE_SPAN_ARG("flow.workload.compact",
                         static_cast<std::int64_t>(config.groupings.size()));
    const TerminalSpace terminals(cell.soc);
    RawPatternStore raw;
    Rng rng(config.seed);
    start_si_test_sets(
        raw,
        [&] {
          SITAM_TRACE_SPAN_ARG("flow.workload.generate",
                               config.pattern_count);
          draw_random_patterns(terminals, config.pattern_count,
                               config.patterns, rng, raw);
        },
        terminals, config.groupings, grouping, group, prepare_cancel_,
        [this, &cell, &group](std::size_t g, SiTestSet set) {
          cell.owned[g] = std::move(set);
          grouping_ready(cell, g, group);
        })
        .wait();
  }

  std::vector<int> widths_;
  OptimizerConfig config_;
  const CancelToken* prepare_cancel_;
  std::deque<SocNode> socs_;
  std::deque<CellNode> cells_;
};

void log_workload(const Soc& soc, const SiWorkloadConfig& config,
                  const std::vector<SiTestSet>& sets) {
  for (std::size_t i = 0; i < sets.size(); ++i) {
    SITAM_INFO << "workload " << soc.name << " N_r=" << config.pattern_count
               << " parts=" << config.groupings[i] << ": "
               << sets[i].total_patterns() << " compacted patterns in "
               << sets[i].groups.size() << " groups";
  }
}

}  // namespace

SiWorkload SiWorkload::prepare(const Soc& soc, const SiWorkloadConfig& config,
                               const CancelToken* cancel) {
  ProtocolGraph graph({}, {}, cancel);
  CellNode& cell = graph.add(soc, config);
  check_cancel(cancel);
  // One pipeline over the raw set for all groupings: the §5 draw writes
  // chunks on a pool worker while this thread's care-set index interns
  // them and encodes their kernel rows, and the i = 1 compaction places
  // the rows on the other workers. A single grouping's pipeline stays on
  // this thread.
  Executor executor(config.parallel_prepare && config.groupings.size() > 1
                        ? ThreadPool::hardware_threads()
                        : 1);
  graph.run(executor);
  check_cancel(cancel);
  log_workload(soc, config, cell.owned);
  return SiWorkload(soc, config, std::move(cell.owned));
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
  ProtocolGraph graph(widths, config, nullptr);
  check_cancel(config.cancel);
  CellNode& cell = graph.add(workload);
  // Per width: the baseline job, then one job per grouping.
  Executor executor(ThreadPool::workers_for(
      config.threads, widths.size() * (workload.groupings().size() + 1) *
                          static_cast<std::size_t>(
                              std::max(1, config.restarts))));
  graph.run(executor);
  return graph.sweep(cell);
}

std::vector<ProtocolResult> run_protocol(std::span<const ProtocolCell> cells,
                                         const std::vector<int>& widths,
                                         const OptimizerConfig& optimizer,
                                         Executor& executor) {
  ProtocolGraph graph(widths, optimizer, optimizer.cancel);
  for (const ProtocolCell& cell : cells) graph.add(cell.soc, cell.config);
  check_cancel(optimizer.cancel);
  graph.run(executor);
  std::vector<ProtocolResult> results;
  results.reserve(cells.size());
  for (CellNode& cell : graph.cells()) {
    SweepResult sweep = graph.sweep(cell);
    log_workload(cell.soc, cell.config, cell.owned);
    results.push_back(ProtocolResult{
        SiWorkload(cell.soc, cell.config, std::move(cell.owned)),
        std::move(sweep)});
  }
  return results;
}

}  // namespace sitam
