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
#include <memory>
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

/// Safety valve on each Algorithm 2 improvement loop: at most this many
/// accepted moves per loop.
inline constexpr int kMaxIterations = 100000;

/// Seed for the restart permutations. Restart i > 0 shuffles the identity
/// core order with an Rng seeded from split_stream(kRestartSeed, i), so
/// every restart's trajectory is independent of how the others are
/// scheduled.
inline constexpr std::uint64_t kRestartSeed = 0x5eedULL;

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
  /// Run the whole Algorithm 2 pipeline this many times — the first run is
  /// the paper's deterministic order, later runs permute the initial core
  /// order (different tie-breaks => different trajectories) — and keep the
  /// best result. 1 = the paper's single pass.
  int restarts = 1;
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

/// mergeTAMs' cheap leftover rule (OptimizerConfig::fast_candidate_scan)
/// and the candidate bound it yields (docs/algorithms.md §5). A candidate
/// merges rails r1 and rj at width w and hands the w1 + wj - w leftover
/// wires out one by one to the first rail of largest time_used, the other
/// rails in index order and then the merged rail. A rail's times depend
/// only on its cores and width, so the replay computes the candidate's
/// exact per-rail times from rail sums alone, without building or
/// evaluating it: the others' sums at w_k + m come from a table filled
/// lazily per bind(), the merged rail's from one sum per width. The bound is
/// max time_in + max time_si with the phases in sequence, max time_used
/// with interleave_phases, and never exceeds the candidate's T_soc; a
/// candidate that survives it takes its widths from the same replay
/// (distribute()).
///
/// Borrows the evaluator and the bound architecture, which must not change
/// until the next bind(). Not thread-safe, like the evaluator.
class CheapMergeBound {
 public:
  explicit CheapMergeBound(const TamEvaluator& eval) : eval_(&eval) {}

  /// Binds the architecture and the rail r1 every candidate merges.
  void bind(const TamArchitecture& arch, std::size_t r1);
  /// Binds the partner rj != r1 of the next bound() calls.
  void set_partner(std::size_t rj);
  /// Lower bound on the T_soc of the candidate that merges r1 and rj at
  /// `width` in [max(w1, wj), w1 + wj]: O(leftover), plus the rail sums
  /// and O(rails) per pick that no earlier call of this partner needed.
  /// Allocates nothing once the scratch has grown.
  [[nodiscard]] std::int64_t bound(int width);
  /// Hands the last bound()'s leftover wires out on `cand`, that candidate
  /// with no leftover wires in its rail order (the other rails in index
  /// order, then the merged rail at that width): the cheap rule's widths.
  void distribute(TamArchitecture& cand) const;

 private:
  // Exact times of rail k (an index of the bound architecture) with
  // `extra` wires beyond its width, and of the merged rail at `width`;
  // summed on first use.
  const RailTimes& other_at(std::size_t k, int extra);
  const RailTimes& merged_at(int width);
  // Extends the others-only pick sequence to `picks` wires.
  void extend_picks(int picks);

  const TamEvaluator* eval_;
  const TamArchitecture* arch_ = nullptr;
  std::size_t r1_ = 0;
  std::size_t rj_ = 0;
  int stride_ = 0;  // Extra wires per rail in other_times_, plus one.
  std::vector<RailTimes> other_times_;   // [k * stride_ + extra]
  int width_min_ = 0;
  std::vector<RailTimes> merged_times_;  // [width - width_min_]
  // The rule's picks among the others alone for the bound partner: the
  // merged rail takes a wire only when it is strictly the largest, so the
  // others take theirs in this order whatever the merged rail does. After
  // s picks the next one takes max_used_[s].
  std::vector<int> extra_;              // Per rail, after the picks so far.
  std::vector<std::size_t> pick_rail_;  // [s]: the rail of the s-th pick.
  std::size_t next_pick_ = 0;           // The rail of the next pick.
  std::vector<std::int64_t> max_in_;    // [s]: maxima over the others
  std::vector<std::int64_t> max_si_;    //      after s picks.
  std::vector<std::int64_t> max_used_;
  // The last bound()'s replay: the others' picks and the merged rail's
  // wires.
  int picks_ = 0;
  int merged_extra_ = 0;
};

/// The bound on Algorithm 2's +1-wire probes (docs/algorithms.md §5, probe
/// bound): distributeFreeWires trials one extra wire on every rail, and
/// coreReshuffle does so to find its bottleneck rails. A probe widens rail
/// r alone, and a rail's times depend only on its cores and width, so the
/// probe's rail times are the bound architecture's with rail r's replaced
/// by its rail sum at w_r + 1. The bound is max time_in + max time_si over
/// those rails with the phases in sequence, max time_used with
/// interleave_phases, and never exceeds the probe's T_soc.
///
/// Borrows the evaluator and the bound architecture, which may change only
/// through widen() until the next bind(). Not thread-safe, like the
/// evaluator.
class WireProbeBound {
 public:
  explicit WireProbeBound(const TamEvaluator& eval) : eval_(&eval) {}

  /// Binds `arch` with its current rail times (parallel to arch.rails) and
  /// sums every rail once at one wire wider.
  void bind(const TamArchitecture& arch, std::span<const RailTimes> rails);
  /// Rail r of the bound architecture has just got one more wire: its
  /// widened times become its current ones, and only its sum is redone.
  void widen(std::size_t r);
  /// Lower bound on the T_soc of the bound architecture with one extra
  /// wire on rail r. O(1).
  [[nodiscard]] std::int64_t bound(std::size_t r) const;

 private:
  // The largest value of one RailTimes field over the current rails, the
  // rail holding it and the largest over the other rails.
  struct Max {
    std::int64_t first = 0;
    std::size_t rail = 0;
    std::int64_t second = 0;

    void add(std::int64_t value, std::size_t r);
    [[nodiscard]] std::int64_t without(std::size_t r) const {
      return r == rail ? second : first;
    }
  };
  void refresh_maxima();

  const TamEvaluator* eval_;
  const TamArchitecture* arch_ = nullptr;
  std::vector<RailTimes> current_;
  std::vector<RailTimes> widened_;
  Max in_;
  Max si_;
  Max used_;
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
/// architectures of total width exactly `w_max`: an OptimizeBatch of one
/// job, its restarts a TaskGroup on config.threads workers (never more
/// than the restarts).
/// Throws std::invalid_argument for w_max < 1 or an empty SOC.
[[nodiscard]] OptimizeResult optimize_tam(const Soc& soc,
                                          const TestTimeTable& table,
                                          const SiTestSet& tests, int w_max,
                                          const OptimizerConfig& config = {});

/// One problem of an OptimizeBatch. Borrowed: the table and the tests
/// must outlive the batch.
struct OptimizeJob {
  const TestTimeTable* table = nullptr;
  const SiTestSet* tests = nullptr;
  int w_max = 0;
  /// When set (a string literal), each unit of this job runs inside a span
  /// of this name with `span_arg`, on the thread that runs it.
  const char* span = nullptr;
  std::int64_t span_arg = 0;
};

class JobWinner;

/// The (job, restart) units of a batch of jobs, started job by job as
/// nodes of a job graph: config.restarts Algorithm 2 restarts per job
/// (config.threads is not read). A finished restart is folded into its
/// job's winner at once (lowest t_soc, then lowest restart index; stats
/// summed), so no more than one result per job is held and the finishing
/// order changes nothing: each job's result equals optimize_tam of that
/// job alone.
class OptimizeBatch {
 public:
  /// Throws std::invalid_argument for a job with w_max < 1 or a null
  /// table/tests, or an empty SOC. Borrows `soc` and the jobs' tables
  /// and tests.
  OptimizeBatch(const Soc& soc, std::vector<OptimizeJob> jobs,
                const OptimizerConfig& config);
  OptimizeBatch(const OptimizeBatch&) = delete;
  OptimizeBatch& operator=(const OptimizeBatch&) = delete;
  ~OptimizeBatch();

  [[nodiscard]] const OptimizeJob& job(std::size_t j) const {
    return jobs_[j];
  }
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }

  /// Starts every restart of job j in `group` at `priority`, once job j's
  /// table and tests are complete; at most once per job. A cancelled unit
  /// throws sitam::Cancelled into the group.
  void start(std::size_t j, TaskGroup& group,
             JobPriority priority = JobPriority::kNormal);

  /// Job j's winner with the summed stats; once, after the group's wait.
  [[nodiscard]] OptimizeResult take(std::size_t j);

 private:
  const Soc& soc_;
  std::vector<OptimizeJob> jobs_;
  OptimizerConfig config_;
  std::vector<std::unique_ptr<JobWinner>> winners_;
};

/// The paper's T_[8] baseline: plain TR-Architect, i.e. Algorithm 2 run
/// against an *empty* SI test set (optimizing T_in only), after which the
/// resulting fixed architecture is evaluated against `tests` to obtain the
/// total T_soc an SI-oblivious flow would deliver.
[[nodiscard]] OptimizeResult optimize_intest_only(
    const Soc& soc, const TestTimeTable& table, const SiTestSet& tests,
    int w_max, const OptimizerConfig& config = {});

}  // namespace sitam
