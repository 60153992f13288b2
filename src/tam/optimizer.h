// TAM design and optimization for Problem P_SI_opt (Algorithm 2).
//
// Adapts TR-Architect [Goel & Marinissen, ITC'02] to co-optimize
// T_soc = T_in + T_si: a start solution assigns every core to a 1-bit rail
// and merges/distributes down or up to W_max wires; then bottom-up merging,
// top-down merging and a skip-set sweep iteratively improve the
// architecture; finally cores are reshuffled away from bottleneck rails.
// Because T_si depends on the architecture (Example 1), every candidate is
// scored with a full evaluation including the Algorithm 1 schedule, and
// *bottleneck rails* are identified empirically: a rail is a bottleneck iff
// granting it one extra wire strictly reduces T_soc.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sitest/group.h"
#include "soc/soc.h"
#include "tam/architecture.h"
#include "tam/evaluator.h"
#include "util/cancel.h"
#include "util/thread_pool.h"
#include "wrapper/design.h"

namespace sitam {

struct OptimizerConfig {
  /// Time model / scheduling options used for every candidate evaluation.
  EvaluatorOptions evaluator;
  /// Score candidates through the incremental DeltaEvaluator (tam/delta.h):
  /// consecutive candidates differ by a move, so most evaluations patch the
  /// previous schedule state instead of re-running ScheduleSITest; the rest
  /// run the full evaluator. Results are bit-identical either
  /// way — the delta path replays the same shared scheduling core — so this
  /// is purely a throughput switch (kept as a switch for the differential
  /// tests and the delta_eval_study bench).
  bool delta_eval = true;
  /// Run the final coreReshuffle stage (Algorithm 2, line 37).
  bool core_reshuffle = true;
  /// During candidate scanning inside mergeTAMs, distribute leftover wires
  /// with the cheap max-time_used rule; the winning candidate is rebuilt
  /// with the precise minimum-T_soc rule. Disabling uses precise
  /// distribution everywhere (slower, rarely better).
  bool fast_candidate_scan = true;
  /// Safety valve on the improvement loops.
  int max_iterations = 100000;
  /// Run the whole Algorithm 2 pipeline this many times — the first run is
  /// the paper's deterministic order, later runs permute the initial core
  /// order (different tie-breaks => different trajectories) — and keep the
  /// best result. 1 = the paper's single pass.
  int restarts = 1;
  /// Seed for the restart permutations. Restart i > 0 shuffles the
  /// identity order with an Rng seeded from split_stream(restart_seed, i),
  /// so every restart's trajectory is independent of how the others are
  /// scheduled.
  std::uint64_t restart_seed = 0x5eedULL;
  /// Worker threads for the (job, restart) units of one call: 1 = serial
  /// on the caller, 0 = one per hardware thread. optimize_tam runs its
  /// restarts on them; run_sweep runs every restart of every width and
  /// grouping on one such pool. Units are fully independent (own
  /// Optimizer, own evaluator, own RNG stream) and each job's winner is
  /// chosen by (t_soc, restart index), so the result is bit-identical for
  /// every thread count.
  int threads = 0;
  /// Non-owning cooperative cancellation token (nullptr = never
  /// cancelled). Every (job, restart) unit, before it starts, and every
  /// Algorithm 2 improvement loop check it and unwind with
  /// sitam::Cancelled; each
  /// restart owns its evaluator state, so a cancelled run leaves no shared
  /// cache mid-update. Deliberately excluded from request identity hashes.
  const CancelToken* cancel = nullptr;
};

struct OptimizeResult {
  TamArchitecture architecture;
  Evaluation evaluation;
  /// Evaluation counters summed over every restart/chain that contributed
  /// to this result (each owns a private evaluator, so the sum is
  /// deterministic regardless of thread count).
  EvaluatorStats stats;
};

/// Solves Problem P_SI_opt: minimizes T_soc = T_in + T_si over TestRail
/// architectures of total width exactly `w_max`: a batch of one job, its
/// restarts on config.threads workers (never more than the restarts).
/// Throws std::invalid_argument for w_max < 1 or an empty SOC.
[[nodiscard]] OptimizeResult optimize_tam(const Soc& soc,
                                          const TestTimeTable& table,
                                          const SiTestSet& tests, int w_max,
                                          const OptimizerConfig& config = {});

/// One problem of an optimize_tam_batch call. Borrowed: the table and the
/// tests must outlive the call.
struct OptimizeJob {
  const TestTimeTable* table = nullptr;
  const SiTestSet* tests = nullptr;
  int w_max = 0;
  /// When set (a string literal), each unit of this job runs inside a span
  /// of this name with `span_arg`, on the thread that runs it.
  const char* span = nullptr;
  std::int64_t span_arg = 0;
};

/// Runs config.restarts Algorithm 2 restarts of every job, all
/// (job, restart) units on `executor` (config.threads is not read), and
/// returns one result per job in job order: each equals optimize_tam of that job alone. A finished
/// restart is folded into its job's winner at once (lowest t_soc, then
/// lowest restart index; stats summed), so no more than one result per
/// job is held. Every unit is waited for before the call returns or
/// throws (a cancelled unit throws sitam::Cancelled; the first error in
/// unit order is rethrown). Throws std::invalid_argument, before any unit
/// runs, for a job with w_max < 1 or a null table/tests, or an empty SOC.
[[nodiscard]] std::vector<OptimizeResult> optimize_tam_batch(
    const Soc& soc, std::span<const OptimizeJob> jobs,
    const OptimizerConfig& config, Executor& executor);

/// The paper's T_[8] baseline: plain TR-Architect, i.e. Algorithm 2 run
/// against an *empty* SI test set (optimizing T_in only), after which the
/// resulting fixed architecture is evaluated against `tests` to obtain the
/// total T_soc an SI-oblivious flow would deliver.
[[nodiscard]] OptimizeResult optimize_intest_only(
    const Soc& soc, const TestTimeTable& table, const SiTestSet& tests,
    int w_max, const OptimizerConfig& config = {});

}  // namespace sitam
