// End-to-end experiment flow (the §5 harness).
//
// A SiWorkload captures everything that does *not* depend on the TAM width:
// for each grouping parameter i, the two-dimensionally compacted SI test set
// of one random SI pattern set (drawn per §5, then dropped). run_experiment /
// run_sweep then optimize TAM architectures per width and produce rows in
// the exact shape of the paper's Tables 2 and 3. run_protocol does both for
// every (SOC, N_r) cell of a table as one job graph; prepare and run_sweep
// are its one-cell cases.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "interconnect/terminal_space.h"
#include "pattern/generator.h"
#include "sitest/group.h"
#include "soc/soc.h"
#include "tam/optimizer.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace sitam {

struct SiWorkloadConfig {
  std::int64_t pattern_count = 10000;  ///< N_r: raw SI vector pairs.
  RandomPatternConfig patterns;        ///< §5 generator knobs.
  std::vector<int> groupings = {1, 2, 4, 8};  ///< i values for T_g_i.
  GroupingConfig grouping;             ///< Partitioner + bus width.
  std::uint64_t seed = 0x20070604ULL;  ///< Drives all randomness.
  /// With more than one grouping, run the prepare pipeline on one pool of
  /// hardware_threads() workers: a worker draws each chunk of the raw
  /// set while the calling thread's care-set index interns it and encodes
  /// its kernel rows, and the i = 1 compaction places those rows on the
  /// other workers; then the partitions and the other groups' compactions
  /// run beside the i = 1 tail. Off, or with one
  /// grouping, the same chunks run in the same order on the calling
  /// thread. Results are identical either way: each compaction is an
  /// independent deterministic job.
  bool parallel_prepare = true;
};

/// 64-bit hash of everything a prepared workload depends on: the SOC
/// structure and every result-affecting SiWorkloadConfig field (generator
/// knobs, groupings, grouping/partition parameters, seed). Excludes the
/// bit-identical throughput switches (parallel_prepare, compaction
/// threads). SitamContext keys its workload tier and its request keys by
/// it.
[[nodiscard]] std::uint64_t workload_config_hash(const Soc& soc,
                                                const SiWorkloadConfig& config);

struct ProtocolCell;
struct ProtocolResult;

/// Prepared SI workload: the compacted test sets per grouping parameter of
/// one raw pattern set.
class SiWorkload {
 public:
  /// Draws the raw set into a RawPatternStore and compacts it (see
  /// parallel_prepare): run_protocol's pass of one cell, with no widths;
  /// the SOC is copied in.
  /// Throws std::invalid_argument on bad config (empty groupings,
  /// non-positive grouping values, negative pattern count). `cancel` is a
  /// cooperative cancellation token checked before each compaction job
  /// (nullptr = never cancelled); a cancelled prepare unwinds with
  /// sitam::Cancelled before any cache sees the partial workload.
  static SiWorkload prepare(const Soc& soc, const SiWorkloadConfig& config,
                            const CancelToken* cancel = nullptr);

  [[nodiscard]] const Soc& soc() const { return soc_; }
  [[nodiscard]] const TerminalSpace& terminals() const { return terminals_; }
  [[nodiscard]] const SiWorkloadConfig& config() const { return config_; }
  [[nodiscard]] std::int64_t raw_pattern_count() const {
    return config_.pattern_count;
  }
  [[nodiscard]] const std::vector<int>& groupings() const {
    return config_.groupings;
  }
  /// Compacted SI test set for grouping `parts`; throws std::out_of_range
  /// if `parts` was not in config().groupings.
  [[nodiscard]] const SiTestSet& tests(int parts) const;

 private:
  friend std::vector<ProtocolResult> run_protocol(
      std::span<const ProtocolCell> cells, const std::vector<int>& widths,
      const OptimizerConfig& optimizer, Executor& executor);

  SiWorkload(Soc soc, SiWorkloadConfig config,
             std::vector<SiTestSet> test_sets);

  Soc soc_;
  SiWorkloadConfig config_;
  TerminalSpace terminals_;
  std::vector<SiTestSet> test_sets_;  // parallel to config_.groupings
};

/// Result of one (SOC, N_r, W_max) cell: the baseline and every grouping.
struct ExperimentOutcome {
  int w_max = 0;
  /// T_[8]: InTest-only TR-Architect architecture, scored against the SI
  /// tests (best grouping on that fixed architecture).
  std::int64_t t_baseline = 0;
  TamArchitecture baseline_architecture;
  /// T_g_i per grouping (parallel to SiWorkload::groupings()).
  std::vector<OptimizeResult> per_grouping;
  std::int64_t t_min = 0;
  int best_grouping = 0;  ///< The i achieving T_min.

  [[nodiscard]] double delta_baseline_pct() const;  ///< ΔT_[8] in %.
  [[nodiscard]] double delta_g_pct() const;         ///< ΔT_g in %.
};

/// Runs the full §5 protocol for one TAM width: run_sweep over {w_max}.
/// Throws std::invalid_argument for w_max < 1.
[[nodiscard]] ExperimentOutcome run_experiment(
    const SiWorkload& workload, int w_max, const OptimizerConfig& config = {});

struct SweepResult {
  std::string soc_name;
  std::int64_t pattern_count = 0;
  std::vector<int> groupings;
  std::vector<ExperimentOutcome> rows;  ///< One per width, ascending.
};

/// Runs the §5 protocol for every width (the paper uses 8..64 step 8) as
/// one job graph on one Executor of config.threads workers: run_protocol's
/// graph for one prepared cell. The SOC's wrapper table is built once, at
/// the largest width, one task per core; then the baseline job and one job
/// per grouping for every width start, widest first, every restart of
/// every job a unit of the same pool (OptimizeBatch). Rows come back in
/// the order of `widths` and are identical for every thread count. Throws
/// std::invalid_argument for a width < 1; a cancelled config.cancel
/// unwinds with sitam::Cancelled once every started unit has returned.
[[nodiscard]] SweepResult run_sweep(const SiWorkload& workload,
                                    const std::vector<int>& widths,
                                    const OptimizerConfig& config = {});

/// One (SOC, N_r) cell of a protocol run.
struct ProtocolCell {
  Soc soc;
  SiWorkloadConfig config;
};

/// One cell's prepared workload and its sweep.
struct ProtocolResult {
  SiWorkload workload;
  SweepResult sweep;
};

/// Runs the §5 protocol for every cell (Tables 2 and 3 are the grid of
/// (SOC, N_r) cells) and every width as one job graph on `executor`, each
/// job started by data, not by phase:
///  - at t = 0, each distinct SOC's wrapper table, at the largest width,
///    one task per core; once it is built, that SOC's baseline jobs, one
///    per width, shared by every cell of the SOC (each cell scores the
///    baseline architecture against its own groupings);
///  - the cells' prepare passes (start_si_test_sets) in cell order, each
///    draw on a worker and each care-set index on the calling thread; the
///    next cell's draw starts once the previous pass has freed its rows,
///    so one cell's rows are alive at a time;
///  - as a grouping's last count lands (and the table is built), its
///    Algorithm 2 jobs for every width, widest first, queued behind the
///    prepare tasks.
/// No task waits on another. Results land by index, so they equal
/// SiWorkload::prepare + run_sweep per cell, byte for byte, for every
/// executor size; on one thread the graph runs on the caller in a fixed
/// topological order. optimizer.cancel also cancels the passes;
/// optimizer.threads is not read. Throws std::invalid_argument, before
/// any job runs, for a width < 1 or a cell prepare would reject; a job's
/// error is rethrown once every started job has returned.
[[nodiscard]] std::vector<ProtocolResult> run_protocol(
    std::span<const ProtocolCell> cells, const std::vector<int>& widths,
    const OptimizerConfig& optimizer, Executor& executor);

}  // namespace sitam
