// Shared Algorithm-1 scheduling core.
//
// The full evaluator (TamEvaluator::evaluate) and the incremental evaluator
// (DeltaEvaluator) must produce bit-identical schedules, so the two pieces
// every schedule is built from — the deterministic pick-rule ordering and
// the greedy placement loop — live here and are called by both. A pending
// group is the CalculateSITestTime output for one SI test group
// (SiGroupTiming); the placement loop consumes the pending table plus a
// pick-ordered index vector and never touches the wrapper tables, which is
// exactly what makes the delta path cheap: it only has to refresh the
// SiGroupTiming entries a move dirtied, check the cached index order is
// still sorted (an O(G) scan), and replay the loop — lazily, only when a
// t_soc()/evaluate() reads the schedule.
//
// The index-vector interface is deliberate wall-clock engineering
// (DESIGN.md §"wall-clock engineering"): ordering moves 4-byte indices
// instead of SiGroupTiming records (two heap vectors each), and the
// placement loop's per-call state lives in a caller-owned ScheduleWorkspace
// so the optimizer's hundreds of thousands of schedule replays allocate
// nothing in steady state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sitest/group.h"
#include "tam/evaluator.h"
#include "tam/schedule_workspace.h"

namespace sitam::detail {

/// The pick rule as a strict total order over (duration, group) pairs:
/// duration-desc (kLongestFirst) or -asc (kShortestFirst) with the group
/// index as the tiebreak, or group index alone (kInputOrder — pending
/// tables are built in SiTestSet order). Strictness is what makes a sorted
/// order unique, so "is the cached order still sorted?" is equivalent to
/// "would re-sorting reproduce it?".
[[nodiscard]] inline bool pick_precedes(std::int64_t duration_a, int group_a,
                                        std::int64_t duration_b, int group_b,
                                        SchedulePick pick) {
  switch (pick) {
    case SchedulePick::kLongestFirst:
      if (duration_a != duration_b) return duration_a > duration_b;
      return group_a < group_b;
    case SchedulePick::kShortestFirst:
      if (duration_a != duration_b) return duration_a < duration_b;
      return group_a < group_b;
    case SchedulePick::kInputOrder:
      break;
  }
  return group_a < group_b;
}

[[nodiscard]] inline bool pick_precedes(const SiGroupTiming& a,
                                        const SiGroupTiming& b,
                                        SchedulePick pick) {
  return pick_precedes(a.duration, a.group, b.duration, b.group, pick);
}

/// Sorts `order` — caller-filled indices into `pending` — under the pick
/// rule. The rule is a strict total order, so the result is unique
/// regardless of the sort algorithm.
void sort_order(const std::vector<SiGroupTiming>& pending, SchedulePick pick,
                std::vector<int>& order);

/// Fills `order` with 0..pending.size()-1 and sorts it under the pick rule.
void pick_order(const std::vector<SiGroupTiming>& pending, SchedulePick pick,
                std::vector<int>& order);

/// True iff `order` is sorted under the pick rule — i.e. re-sorting would
/// reproduce it verbatim. The delta path runs this O(G) scan instead of a
/// sort to decide whether a move invalidated the cached order.
[[nodiscard]] bool order_is_sorted(const std::vector<SiGroupTiming>& pending,
                                   SchedulePick pick,
                                   std::span<const int> order);

/// The greedy placement loop of Algorithm 1 (ScheduleSITest): schedules
/// `pending[order[k]]` for k = 0.. in that exact sequence preference,
/// subject to rail exclusivity and the optional power budget.
/// `order` must hold distinct indices into `pending`, already in pick
/// order; entries of `pending` not named by `order` are ignored (the delta
/// path keeps inactive groups in its dense table). `rail_time_in` supplies
/// per-rail InTest times for the interleaved release rule and must span
/// every rail index the ordered groups reference; only its size is used
/// when interleaving is off. The result is written into `out` (cleared
/// first, capacity recycled). Throws via SITAM_CHECK on a scheduling
/// deadlock.
void schedule_pending(const std::vector<SiGroupTiming>& pending,
                      std::span<const int> order, const SiTestSet& tests,
                      const EvaluatorOptions& options,
                      std::span<const std::int64_t> rail_time_in,
                      ScheduleWorkspace& ws, SiSchedule& out);

}  // namespace sitam::detail
