// Incremental schedule evaluation (the delta path in front of the full
// evaluator).
//
// Algorithm 2 and the annealing chains evaluate long sequences of
// architectures where consecutive candidates differ in one move — a core
// moved between rails, a width change, a rail merge or split. The full
// evaluator still pays the whole CalculateSITestTime pass (a wrapper-table
// lookup per core per group) and the InTest pass for every candidate, even
// though a move leaves most rails byte-identical. DeltaEvaluator keeps the
// previous architecture's schedule state and patches it:
//
//  1. Every rail of the new architecture is matched against the cached
//     rails by its raw content-hash quadruple (sum0, sum1, width, |cores|)
//     — TestRail::hash_sums, an O(1) query thanks to the incremental hash
//     cache the optimizers maintain through the mutation helpers, with no
//     SplitMix64 finalization at all on the warm path. Matched rails reuse
//     their cached InTest time verbatim; only unmatched ("dirty") rails
//     rerun the wrapper-table loop.
//  2. A core is dirty iff it sits on a dirty rail (both architectures
//     partition the same core set, so the dirty cores of the new
//     architecture are exactly the cores of the retired cached rails).
//     The dirty SI groups come from a precomputed core→groups incidence
//     table; clean groups keep their cached timing (rail indices remapped
//     in place when the move shifted rail positions). When rails match
//     positionally — the optimizer's single-core moves and width probes —
//     a dirty group is patched in place rather than recomputed: the
//     cached SiGroupTiming carries the raw per-rail inputs (Σ scan
//     shifts, member count), each affected core adjusts exactly its old
//     and new rail's entries, and the group's busy times rebuild from the
//     patched inputs in O(#involved rails) instead of a wrapper-table
//     walk over every member core.
//  3. The cached pick order must still be sorted under the patched
//     durations — an O(G) scan (detail::order_is_sorted), not a re-sort.
//     If the scan fails, the order is re-sorted in place
//     (detail::sort_order reproduces pick_order() exactly, since the pick
//     rule is a strict total order) and the delta path continues — no
//     fallback to the full path. The shared Algorithm-1 placement loop
//     (tam/schedule.h) then replays over the patched timings, which is
//     bit-identical to the full evaluator by construction. A positional
//     small move that changed no group's (duration, rails, bottleneck) —
//     the optimizer's ±1-wire probes at widths where no scan-length
//     ceiling moves — skips even the replay: the cached schedule is
//     provably still the schedule.
//
// Wall-clock engineering (DESIGN.md): the cached state is
// structure-of-arrays — dense u64 hash arrays, dense per-rail time arrays,
// a dense per-group duration array — so the match pass, the dirty updates
// and the order scan are linear scans over flat memory, and the steady
// state allocates nothing. The full Evaluation (rails table, InTest slots,
// schedule copy) is materialized lazily: t_soc() and rail_times() never
// assemble the parts they do not return.
//
// Fallbacks (counted in DeltaBreakdown): no cached state yet, more dirty
// rails than DeltaOptions::max_dirty_rails (a restart-sized jump, not a
// move), or a changed pick order. Every evaluation — hit or fallback —
// rebases the cached state onto its result, so the next move diffs against
// the newest architecture.
//
// Under SITAM_DCHECK every delta hit is verified field-by-field against
// evaluate_reference (verify_delta_consistency), so Debug and sanitizer
// runs cross-check the two paths on every single evaluation.
//
// Not thread-safe; parallel restarts/chains each own a private
// TamEvaluator + DeltaEvaluator pair, which is what keeps results
// bit-identical for any thread count.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "tam/evaluator.h"
#include "tam/schedule_workspace.h"

namespace sitam {

struct DeltaOptions {
  /// Maximum number of unmatched (recomputed-from-scratch) rails before the
  /// move is treated as a whole-architecture jump and the evaluation falls
  /// back to the full path. Optimizer moves dirty at most two rails; the
  /// default leaves headroom for compound moves without letting a rebase
  /// masquerade as a delta.
  int max_dirty_rails = 6;
};

/// Fallback/rebase diagnostics, separate from EvaluatorStats (which only
/// tracks the delta-hit/full-run accounting).
struct DeltaBreakdown {
  std::int64_t delta_hits = 0;       ///< Patched without a full run.
  std::int64_t identity_hits = 0;    ///< …of which: unchanged architecture.
  std::int64_t replay_skips = 0;     ///< …of which: cached schedule reused.
  std::int64_t rebases = 0;          ///< Full-path evaluations (any reason).
  std::int64_t no_base = 0;          ///< No cached state (first call).
  std::int64_t dirty_fallbacks = 0;  ///< > max_dirty_rails rails changed.
  std::int64_t order_resorts = 0;    ///< Cached pick order re-sorted.
};

/// Incremental front-end over a TamEvaluator. evaluate()/t_soc() are
/// drop-in replacements for the TamEvaluator calls with identical results;
/// stats() merges the wrapped evaluator's full-run counters with the local
/// delta-hit count so the EvaluatorStats invariant (delta hits + misses ==
/// evaluations) holds for the stack as a whole.
class DeltaEvaluator {
 public:
  /// `full` must outlive the DeltaEvaluator. The wrapped evaluator performs
  /// all fallback evaluations and supplies the per-group timing
  /// recomputation.
  explicit DeltaEvaluator(const TamEvaluator& full,
                          const DeltaOptions& options = {});

  /// Evaluate `arch`, patching the cached state when possible. The returned
  /// reference is into the evaluator's cached state and is invalidated by
  /// the next evaluate()/t_soc()/rail_times() call.
  const Evaluation& evaluate(const TamArchitecture& arch);

  /// Scoring-loop entry point: same value as evaluate(arch).t_soc, but the
  /// full Evaluation (rails table, InTest slots, schedule copy) is never
  /// materialized.
  std::int64_t t_soc(const TamArchitecture& arch);

  /// Per-rail times only — the optimizer's wire-distribution and
  /// merge-ordering loops read nothing else, and this skips the InTest
  /// slot and schedule materialization evaluate() pays for. Same lifetime
  /// rule as evaluate(): invalidated by the next call.
  const std::vector<RailTimes>& rail_times(const TamArchitecture& arch);

  /// Drops the cached state; the next evaluation rebases via the full path.
  void invalidate();

  /// Combined counters: the wrapped evaluator's full runs plus this
  /// front-end's delta hits.
  [[nodiscard]] EvaluatorStats stats() const;

  [[nodiscard]] const DeltaBreakdown& breakdown() const { return breakdown_; }
  [[nodiscard]] const TamEvaluator& full() const { return *full_; }
  [[nodiscard]] const DeltaOptions& options() const { return options_; }

 private:
  // Runs the patch-or-rebase step shared by every entry point.
  void step(const TamArchitecture& arch);

  // Attempts the patch path; returns false (recording the reason) when the
  // evaluation must fall back. On success the SoA state describes `arch`.
  bool try_delta(const TamArchitecture& arch);

  // Full evaluation through the wrapped evaluator, then rebuilds the SoA
  // state from scratch.
  void rebase(const TamArchitecture& arch);

  // Derives t_si_/t_soc_ from t_in_ and makespan_ under the phase rule.
  void refresh_totals();

  // Fills base_eval_.rails from the SoA per-rail arrays (if stale).
  void materialize_rails();

  // Fills all of base_eval_ — rails, InTest slots, schedule — from the SoA
  // state (if stale). `arch` must be the architecture the state describes.
  void materialize(const TamArchitecture& arch);

  const TamEvaluator* full_;
  DeltaOptions options_;

  bool has_base_ = false;

  // ---- SoA cached state describing the base architecture ----
  // Per rail, dense and parallel: raw dual hash sums plus the packed
  // (width << 32 | core count) shape word — together the exact match key —
  // then InTest time and summed SI busy time.
  std::vector<std::uint64_t> rail_sum0_;
  std::vector<std::uint64_t> rail_sum1_;
  std::vector<std::uint64_t> rail_shape_;
  std::vector<std::int64_t> rail_time_in_;
  std::vector<std::int64_t> rail_time_si_;
  // Per group, dense by group id: the cached SiGroupTiming (group == -1
  // marks a group skipped for patterns <= 0) and the duration array the
  // O(G) order-validity scan reads.
  std::vector<SiGroupTiming> base_groups_;
  std::vector<std::int64_t> group_duration_;
  std::vector<int> base_order_;  // active group ids in pick order
  // Core -> rail map of the base architecture, patched per move.
  std::vector<int> rail_of_core_;
  // Scalars of the base evaluation.
  std::int64_t t_in_ = 0;
  std::int64_t t_si_ = 0;
  std::int64_t t_soc_ = 0;
  std::int64_t makespan_ = 0;

  // Lazily materialized full result. base_eval_.schedule always describes
  // the base once schedule_/rails_/eval_valid_ say so; a delta hit leaves
  // the schedule fresh (it replays or provably reuses it) but marks rails
  // and the rest stale until someone asks.
  Evaluation base_eval_;
  bool rails_valid_ = false;
  bool eval_valid_ = false;

  // ---- Immutable workload tables (built once per evaluator) ----
  std::vector<int> active_groups_;  // group ids with patterns > 0, ascending
  // CSR core -> active groups containing it.
  std::vector<int> core_group_offsets_;  // size core_count + 1
  std::vector<int> core_group_ids_;

  // Delta-hit accounting local to this front-end; stats() adds it to the
  // wrapped evaluator's counters.
  EvaluatorStats local_;
  DeltaBreakdown breakdown_;

  // ---- Scratch reused across evaluations ----
  std::vector<int> match_;    // new rail -> cached rail (-1 = dirty)
  std::vector<int> old2new_;  // cached rail -> new rail (-1 = retired)
  std::vector<std::uint8_t> base_used_;
  std::vector<std::uint8_t> group_mark_;  // per group: queued as dirty
  std::vector<int> dirty_groups_;
  std::vector<std::uint64_t> sum0_scratch_;
  std::vector<std::uint64_t> sum1_scratch_;
  std::vector<std::uint64_t> shape_scratch_;
  std::vector<std::int64_t> time_in_scratch_;
  std::vector<std::int64_t> time_si_scratch_;
  SiGroupTiming timing_scratch_;
  std::vector<std::pair<int, std::int64_t>> remap_scratch_;
  detail::ScheduleWorkspace schedule_ws_;
  // One entry per core whose (rail, width) inputs a positional move
  // changed: the inputs before and after. Drives the in-place patch of the
  // dirty groups' cached (rail_shift, rail_count) tables.
  struct AffectedCore {
    int core;
    int old_rail;
    int new_rail;
    int old_width;
    int new_width;
  };
  std::vector<AffectedCore> affected_scratch_;
  // Per group: an insert/erase changed its involved-rail set during the
  // in-place patch (forces a schedule replay). Holds the all-zero
  // invariant between evaluations, like group_mark_.
  std::vector<std::uint8_t> group_rails_changed_;
};

}  // namespace sitam
