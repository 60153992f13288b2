// TAM architecture evaluation: InTest times, SI test times
// (CalculateSITestTime) and the SI test schedule of Algorithm 1.
//
// Timing model (DESIGN.md §4):
//  * InTest: rails test their cores sequentially, so
//      time_in(r) = Σ_{c ∈ C(r)} T_c(width(r)),
//    with T_c from the Combine wrapper design, and T_in_soc = max_r time_in.
//  * SI test group s (p_s compacted vector pairs): on rail r the involved
//    cores' boundary chains are daisy-chained (don't-care cores bypassed),
//    giving a per-pattern scan length l_r(s) = Σ ceil(WOC_c / width(r));
//    with pipelined shift and a 2-cycle launch/capture per vector pair,
//      T_r(s) = (p_s + 1) · l_r(s) + 2 · p_s.
//    The group's duration is set by its bottleneck TAM:
//      time_si(s) = max over involved rails of T_r(s)    (Example 1).
//  * Same wrapper cells serve InTest and SI test, so the two never overlap:
//      T_soc = T_in_soc + T_si_soc.
#pragma once

#include <cstdint>
#include <vector>

#include "sitest/group.h"
#include "soc/soc.h"
#include "tam/architecture.h"
#include "tam/schedule_workspace.h"
#include "wrapper/design.h"

namespace sitam {

/// Launch/capture cycles per SI vector pair.
inline constexpr std::int64_t kSiApplyCycles = 2;

/// Which schedulable SI test Algorithm 1 starts first. The paper's
/// pseudocode says only "find s* in unSchedSI"; longest-first is the
/// default here (classic LPT greedy) and the alternatives exist for the
/// ablation study.
enum class SchedulePick : std::uint8_t {
  kLongestFirst,
  kShortestFirst,
  kInputOrder,
};

/// TAM architecture style for the ExTest/SI time model.
///
/// * kTestRail — the paper's choice: the wrapper boundaries of a rail's
///   cores are daisy-chained (don't-care cores bypassed), so SI patterns
///   stream through with full pipelining: T = (p+1)·l + 2p.
/// * kTestBus — the Varma/Bhatia-style multiplexing access: only one
///   core's wrapper connects to the bus at a time, so each pattern loads
///   the involved cores one after another with a mux-switch overhead and
///   without cross-pattern pipelining:
///   T = p·(l + kBusSwitchCycles·cores) + l + 2p.
/// InTest time is identical in both styles (cores on a rail/bus test
/// sequentially either way) — exactly why the paper says Test Bus does not
/// naturally support the parallel external testing SI needs.
enum class ArchitectureStyle : std::uint8_t { kTestRail, kTestBus };

/// Mux reconfiguration cycles per involved core per pattern under
/// ArchitectureStyle::kTestBus.
inline constexpr std::int64_t kBusSwitchCycles = 4;

struct EvaluatorOptions {
  SchedulePick pick = SchedulePick::kLongestFirst;
  ArchitectureStyle style = ArchitectureStyle::kTestRail;
  /// Peak-power budget for concurrently running SI tests (same units as
  /// SiTestGroup::power; see assign_si_power). 0 = unconstrained. The
  /// evaluator rejects test sets containing a group whose own power already
  /// exceeds the budget (it could never be scheduled).
  std::int64_t power_budget = 0;
  /// Treat the shared functional bus as a scheduling resource: at most one
  /// bus-using SI test (SiTestGroup::uses_bus) runs at a time — two
  /// concurrent tests cannot both drive the same bus lines. Off by default
  /// (the paper's Algorithm 1 only tracks TAM conflicts).
  bool exclusive_bus = false;
  /// Interleave the InTest and SI phases (extension beyond the paper): an
  /// SI test may start once every rail it involves has finished its own
  /// InTest, instead of waiting for the global InTest makespan. The wrapper
  /// resource constraint is still respected — a core's boundary serves its
  /// InTest and its SI tests at disjoint times. With this on,
  /// T_soc = makespan of the combined schedule (may beat T_in + T_si).
  bool interleave_phases = false;
};

/// Per-rail bookkeeping (the paper's TestRail data structure, Fig. 4).
struct RailTimes {
  std::int64_t time_in = 0;    ///< InTest time on this rail.
  std::int64_t time_si = 0;    ///< This rail's own busy time across SI tests.
  std::int64_t time_used = 0;  ///< time_in + time_si.

  friend bool operator==(const RailTimes&, const RailTimes&) = default;
};

/// CalculateSITestTime output for one SI test group: the per-rail busy
/// breakdown the scheduler (and the incremental delta path) consumes.
/// `rails` is sorted ascending and `rail_busy` is parallel to it; the
/// bottleneck is the lowest-index rail achieving the maximum busy time.
struct SiGroupTiming {
  int group = -1;  ///< Index into SiTestSet::groups.
  std::int64_t duration = 0;
  int bottleneck = -1;
  std::vector<int> rails;               ///< Involved rail indices, ascending.
  std::vector<std::int64_t> rail_busy;  ///< T_r(s), parallel to `rails`.
  // Raw CalculateSITestTime inputs, parallel to `rails`: the summed
  // per-pattern WOC shift and the member-core count on each involved rail.
  // rail_busy is a pure function of (rail_shift, rail_count, patterns), so
  // carrying the inputs lets the delta evaluator patch a group's timing
  // under a single-core move by adjusting two entries instead of
  // re-walking every member core (DESIGN.md §"wall-clock engineering").
  std::vector<std::int64_t> rail_shift;  ///< Σ ceil(WOC/width), per rail.
  std::vector<int> rail_count;           ///< Member cores on each rail.
};

/// One scheduled SI test (the paper's SI-test data structure, Fig. 4).
struct SiScheduleItem {
  int group = -1;  ///< Index into SiTestSet::groups.
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t duration = 0;       ///< time_si(s) = end - begin.
  int bottleneck_rail = -1;        ///< r_btn(s): rail with the max T_r(s).
  std::vector<int> rails;          ///< R_tam(s): involved rail indices.

  friend bool operator==(const SiScheduleItem&,
                         const SiScheduleItem&) = default;
};

struct SiSchedule {
  std::vector<SiScheduleItem> items;  ///< In scheduling order.
  std::int64_t makespan = 0;          ///< T_si_soc.

  friend bool operator==(const SiSchedule&, const SiSchedule&) = default;
};

/// One core's InTest slot on its rail (cores on a rail test sequentially,
/// rails run in parallel).
struct InTestSlot {
  int core = -1;
  int rail = -1;
  std::int64_t begin = 0;
  std::int64_t end = 0;

  friend bool operator==(const InTestSlot&, const InTestSlot&) = default;
};

struct Evaluation {
  std::int64_t t_in = 0;
  std::int64_t t_si = 0;
  std::int64_t t_soc = 0;
  std::vector<RailTimes> rails;    ///< Parallel to architecture.rails.
  std::vector<InTestSlot> intest;  ///< Rail-major, then core order.
  SiSchedule schedule;

  friend bool operator==(const Evaluation&, const Evaluation&) = default;
};

/// Evaluation-count bookkeeping for one evaluator stack (and, summed, for a
/// whole optimizer run). Every evaluate()/t_soc() call counts exactly once,
/// in exactly one bucket:
///  * delta_hits  — answered by the incremental delta path (DeltaEvaluator
///    patched the previous architecture's schedule state instead of running
///    ScheduleSITest from scratch);
///  * cache_misses — ran the full timing model (a full ScheduleSITest).
/// The buckets always add up to `evaluations`. A plain TamEvaluator never
/// records delta hits; only the DeltaEvaluator front-end does.
struct EvaluatorStats {
  std::int64_t evaluations = 0;
  /// Always 0: the evaluator has no memo. Kept, with memo_hit_rate(), only
  /// because bench/e2e still reads both (ROADMAP item 7 (g) deletes them
  /// with their readers); result lines keep their "cache_hits" field.
  std::int64_t cache_hits = 0;
  std::int64_t delta_hits = 0;
  std::int64_t cache_misses = 0;

  friend bool operator==(const EvaluatorStats&,
                         const EvaluatorStats&) = default;

  /// Fraction of evaluations that avoided a full ScheduleSITest run.
  [[nodiscard]] double hit_rate() const {
    return evaluations == 0
               ? 0.0
               : static_cast<double>(cache_hits + delta_hits) /
                     static_cast<double>(evaluations);
  }

  /// Always 0 (see cache_hits).
  [[nodiscard]] double memo_hit_rate() const {
    return evaluations == 0 ? 0.0
                            : static_cast<double>(cache_hits) /
                                  static_cast<double>(evaluations);
  }

  /// Fraction answered by the incremental delta path.
  [[nodiscard]] double delta_hit_rate() const {
    return evaluations == 0 ? 0.0
                            : static_cast<double>(delta_hits) /
                                  static_cast<double>(evaluations);
  }

  /// Number of full ScheduleSITest runs (alias for the miss bucket, named
  /// for what it costs).
  [[nodiscard]] std::int64_t full_evaluations() const { return cache_misses; }

  EvaluatorStats& operator+=(const EvaluatorStats& other) {
    evaluations += other.evaluations;
    cache_hits += other.cache_hits;
    delta_hits += other.delta_hits;
    cache_misses += other.cache_misses;
    return *this;
  }
};

/// Binds a SOC, its precomputed wrapper time table and an SI test set, and
/// evaluates TestRail architectures against them. The optimizer calls
/// evaluate() hundreds of thousands of times, so the implementation reuses
/// scratch buffers.
///
/// Not thread-safe: the scratch buffers and the stats counters are plain
/// members, so an instance must be used by one thread at a time. The
/// parallel optimizers give every restart/chain its own evaluator.
class TamEvaluator {
 public:
  /// All references must outlive the evaluator. Throws
  /// std::invalid_argument if the table's core count mismatches the SOC.
  TamEvaluator(const Soc& soc, const TestTimeTable& table,
               const SiTestSet& tests, const EvaluatorOptions& options = {});

  /// Full evaluation: rail times, Algorithm 1 schedule, T_soc. Every call
  /// runs the timing model and counts as one full run (cache_misses).
  /// The architecture must be valid for this SOC (validate() it first when
  /// it comes from outside the optimizer).
  [[nodiscard]] Evaluation evaluate(const TamArchitecture& arch) const;

  /// Convenience: just T_soc, counted like evaluate().
  [[nodiscard]] std::int64_t t_soc(const TamArchitecture& arch) const;

  /// CalculateSITestTime for one group: duration and bottleneck rail.
  /// `rail_of_core` must come from arch.rail_of_core(core_count()).
  [[nodiscard]] std::int64_t si_group_time(const TamArchitecture& arch,
                                           const SiTestGroup& group,
                                           const std::vector<int>& rail_of_core,
                                           int* bottleneck_rail) const;

  /// CalculateSITestTime with the full per-rail breakdown (the scheduler's
  /// input for one group). `group_index` is recorded in the result;
  /// `rail_of_core` must come from arch.rail_of_core(core_count()). This is
  /// the building block the incremental DeltaEvaluator refreshes per dirty
  /// group; it does not touch the counters.
  [[nodiscard]] SiGroupTiming si_group_timing(
      const TamArchitecture& arch, int group_index,
      const std::vector<int>& rail_of_core) const;

  /// In-place variant of si_group_timing: overwrites `out`, recycling its
  /// vector capacity. The delta path refreshes one dirty group per move this
  /// way, so the steady state allocates nothing.
  void si_group_timing_into(const TamArchitecture& arch, int group_index,
                            const std::vector<int>& rail_of_core,
                            SiGroupTiming& out) const;

  /// evaluate() without the counters — the reference the delta path is
  /// checked against under SITAM_DCHECK and in the differential tests.
  [[nodiscard]] Evaluation evaluate_reference(const TamArchitecture& arch) const;

  [[nodiscard]] const Soc& soc() const { return *soc_; }
  [[nodiscard]] const SiTestSet& tests() const { return *tests_; }
  [[nodiscard]] const TestTimeTable& table() const { return *table_; }
  [[nodiscard]] const EvaluatorOptions& options() const { return options_; }

  /// Eval/miss counters since construction (or the last reset).
  [[nodiscard]] const EvaluatorStats& stats() const { return stats_; }
  void reset_stats() { stats_ = EvaluatorStats{}; }

  /// SI busy time of one rail given per-pattern scan length and core
  /// count. Public for the delta evaluator, which rebuilds a patched
  /// group's rail_busy from the cached (rail_shift, rail_count) inputs.
  [[nodiscard]] std::int64_t rail_si_busy(std::int64_t shift,
                                          std::int64_t involved_cores,
                                          std::int64_t patterns) const;

 private:
  // Counts one full run in stats_ and the trace counters.
  void count_full_run() const;

  const Soc* soc_;
  const TestTimeTable* table_;
  const SiTestSet* tests_;
  EvaluatorOptions options_;

  // Scratch reused across evaluate() calls (single-threaded per instance,
  // see the class comment).
  mutable std::vector<int> rail_of_core_;
  mutable std::vector<std::int64_t> rail_shift_;  // l_r(s) accumulator
  mutable std::vector<std::int64_t> rail_cores_;  // |C(r) ∩ C(s)| accumulator
  mutable std::vector<int> touched_rails_;
  mutable std::vector<SiGroupTiming> pending_scratch_;
  mutable std::vector<int> order_scratch_;
  mutable std::vector<std::int64_t> rail_time_in_scratch_;
  mutable detail::ScheduleWorkspace schedule_ws_;
  mutable EvaluatorStats stats_;
};

}  // namespace sitam
