#include "tam/schedule.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "util/check.h"

namespace sitam::detail {

void sort_order(const std::vector<SiGroupTiming>& pending, SchedulePick pick,
                std::vector<int>& order) {
  SITAM_DCHECK_MSG(
      std::all_of(order.begin(), order.end(),
                  [&](int i) {
                    return i >= 0 && static_cast<std::size_t>(i) <
                                         pending.size() &&
                           pending[static_cast<std::size_t>(i)].group >= 0;
                  }),
      "order references a pending entry without a group index");
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return pick_precedes(pending[static_cast<std::size_t>(a)],
                         pending[static_cast<std::size_t>(b)], pick);
  });
}

void pick_order(const std::vector<SiGroupTiming>& pending, SchedulePick pick,
                std::vector<int>& order) {
  order.resize(pending.size());
  std::iota(order.begin(), order.end(), 0);
  sort_order(pending, pick, order);
  SITAM_DCHECK_MSG(order_is_sorted(pending, pick, order),
                   "pick_order produced an unsorted order");
}

bool order_is_sorted(const std::vector<SiGroupTiming>& pending,
                     SchedulePick pick, std::span<const int> order) {
  for (std::size_t i = 1; i < order.size(); ++i) {
    const SiGroupTiming& prev =
        pending[static_cast<std::size_t>(order[i - 1])];
    const SiGroupTiming& curr = pending[static_cast<std::size_t>(order[i])];
    if (!pick_precedes(prev, curr, pick)) return false;
  }
  return true;
}

void schedule_pending(const std::vector<SiGroupTiming>& pending,
                      std::span<const int> order, const SiTestSet& tests,
                      const EvaluatorOptions& options,
                      std::span<const std::int64_t> rail_time_in,
                      ScheduleWorkspace& ws, SiSchedule& out) {
  // Reuse the destination's item slots: resize keeps the surviving items'
  // rails capacity alive, so the steady-state replay (same group count
  // every time) allocates nothing. `placed` tracks how many slots hold
  // this call's results; values are overwritten field-by-field below.
  const std::size_t count = order.size();
  out.items.resize(count);
  out.makespan = 0;
  std::size_t placed = 0;

  const auto entry = [&](std::size_t k) -> const SiGroupTiming& {
    return pending[static_cast<std::size_t>(order[k])];
  };

  // Release times: with interleave_phases an SI test may not start before
  // every rail it involves has finished its own InTest (shared wrapper
  // cells per core); otherwise all releases are 0 and the SI schedule is a
  // separate phase appended after T_in. The non-interleaved replay — the
  // delta evaluator's steady state — skips the release vector entirely.
  const bool interleave = options.interleave_phases;
  if (interleave) {
    ws.release.assign(count, 0);
    for (std::size_t k = 0; k < count; ++k) {
      for (const int rail : entry(k).rails) {
        ws.release[k] = std::max(
            ws.release[k], rail_time_in[static_cast<std::size_t>(rail)]);
      }
    }
  }

  ws.scheduled.assign(count, 0);
  std::size_t remaining = count;
  std::size_t first_unscheduled = 0;
  std::int64_t curr_time = 0;
  std::int64_t running_power = 0;
  ws.occupied.assign(rail_time_in.size(), 0);
  ws.running.clear();

  const auto group_power = [&](std::size_t k) {
    return tests.groups[static_cast<std::size_t>(entry(k).group)].power;
  };

  while (remaining > 0) {
    // Find s* whose rails are all free at curr_time and whose power fits
    // within the remaining budget.
    std::size_t pick = count;
    for (std::size_t k = first_unscheduled; k < count; ++k) {
      if (ws.scheduled[k] != 0) continue;
      const SiGroupTiming& cand = entry(k);
      const bool free = std::none_of(
          cand.rails.begin(), cand.rails.end(), [&](int rail) {
            return ws.occupied[static_cast<std::size_t>(rail)] != 0;
          });
      const bool power_ok =
          options.power_budget <= 0 ||
          running_power + group_power(k) <= options.power_budget;
      const std::int64_t release = interleave ? ws.release[k] : 0;
      if (release <= curr_time && free && power_ok) {
        pick = k;
        break;
      }
    }
    if (pick < count) {
      const SiGroupTiming& chosen = entry(pick);
      SiScheduleItem& item = out.items[placed++];
      item.group = chosen.group;
      item.begin = curr_time;
      item.duration = chosen.duration;
      item.end = item.begin + item.duration;
      item.bottleneck_rail = chosen.bottleneck;
      item.rails.assign(chosen.rails.begin(), chosen.rails.end());
      out.makespan = std::max(out.makespan, item.end);
      ws.running.emplace_back(item.end, static_cast<int>(pick));
      running_power += group_power(pick);
      for (const int rail : chosen.rails) {
        ws.occupied[static_cast<std::size_t>(rail)] = 1;
      }
      ws.scheduled[pick] = 1;
      while (first_unscheduled < count &&
             ws.scheduled[first_unscheduled] != 0) {
        ++first_unscheduled;
      }
      --remaining;
    } else {
      // Advance to the earliest event after curr_time — a running test's
      // end or (with interleaving) an unscheduled test's release — and
      // retire finished tests. Rails are exclusive among running tests (a
      // test is only placed when all its rails are free), so retiring one
      // frees exactly its own rails; no full occupied-set rebuild needed.
      std::int64_t next_time = std::numeric_limits<std::int64_t>::max();
      for (const auto& [end, k] : ws.running) {
        (void)k;
        if (end > curr_time) next_time = std::min(next_time, end);
      }
      if (interleave) {
        for (std::size_t k = first_unscheduled; k < count; ++k) {
          if (ws.scheduled[k] == 0 && ws.release[k] > curr_time) {
            next_time = std::min(next_time, ws.release[k]);
          }
        }
      }
      SITAM_CHECK_MSG(next_time !=
                          std::numeric_limits<std::int64_t>::max(),
                      "SI scheduling deadlock: nothing running but tests "
                      "cannot be placed");
      curr_time = next_time;
      for (auto it = ws.running.begin(); it != ws.running.end();) {
        if (it->first <= curr_time) {
          const std::size_t done = static_cast<std::size_t>(it->second);
          running_power -= group_power(done);
          for (const int rail : entry(done).rails) {
            ws.occupied[static_cast<std::size_t>(rail)] = 0;
          }
          *it = ws.running.back();
          ws.running.pop_back();
        } else {
          ++it;
        }
      }
    }
  }
  SITAM_DCHECK_MSG(placed == count,
                   "schedule_pending left unplaced pending tests");
}

}  // namespace sitam::detail
