#include "tam/evaluator.h"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.h"
#include "tam/schedule.h"
#include "util/check.h"

namespace sitam {

TamEvaluator::TamEvaluator(const Soc& soc, const TestTimeTable& table,
                           const SiTestSet& tests,
                           const EvaluatorOptions& options)
    : soc_(&soc), table_(&table), tests_(&tests), options_(options) {
  if (table.core_count() != soc.core_count()) {
    throw std::invalid_argument(
        "TamEvaluator: TestTimeTable core count mismatches the SOC");
  }
  for (const SiTestGroup& g : tests.groups) {
    for (const int core : g.cores) {
      if (core < 0 || core >= soc.core_count()) {
        throw std::invalid_argument(
            "TamEvaluator: SI test group references a core outside the SOC");
      }
    }
    if (options.power_budget > 0 && g.power > options.power_budget) {
      throw std::invalid_argument(
          "TamEvaluator: SI test group '" + g.label + "' needs power " +
          std::to_string(g.power) + " > budget " +
          std::to_string(options.power_budget));
    }
  }
  groups_of_core_.resize(static_cast<std::size_t>(soc.core_count()));
  for (std::size_t g = 0; g < tests.groups.size(); ++g) {
    if (tests.groups[g].patterns <= 0) continue;
    for (const int core : tests.groups[g].cores) {
      groups_of_core_[static_cast<std::size_t>(core)].push_back(
          static_cast<int>(g));
    }
  }
  group_shift_.assign(tests.groups.size(), 0);
  group_cores_.assign(tests.groups.size(), 0);
}

RailTimes TamEvaluator::rail_sum(std::span<const int> a,
                                 std::span<const int> b, int width,
                                 InTestSum intest) const {
  // InTest is sequential on the rail, and its SI tests never overlap each
  // other, so their busy times add up.
  RailTimes times;
  touched_groups_.clear();
  for (const std::span<const int> cores : {a, b}) {
    for (const int core : cores) {
      times.time_in += intest == InTestSum::kExact
                           ? table_->intest(core, width)
                           : table_->intest_floor(core, width);
      const std::int64_t shift = table_->woc_shift(core, width);
      for (const int g : groups_of_core_[static_cast<std::size_t>(core)]) {
        const auto k = static_cast<std::size_t>(g);
        if (group_cores_[k]++ == 0) touched_groups_.push_back(g);
        group_shift_[k] += shift;
      }
    }
  }
  for (const int g : touched_groups_) {
    const auto k = static_cast<std::size_t>(g);
    times.time_si += rail_si_busy(group_shift_[k], group_cores_[k],
                                  tests_->groups[k].patterns);
    group_shift_[k] = 0;
    group_cores_[k] = 0;
  }
  times.time_used = times.time_in + times.time_si;
  return times;
}

void TamEvaluator::si_group_timing_into(const TamArchitecture& arch,
                                        int group_index,
                                        const std::vector<int>& rail_of_core,
                                        SiGroupTiming& out) const {
  const SiTestGroup& group =
      tests_->groups[static_cast<std::size_t>(group_index)];
  // rail_shift_/rail_cores_ hold the all-zero invariant between calls;
  // only the touched entries are reset on exit, so a small group on a wide
  // architecture never pays for the untouched rails.
  if (rail_shift_.size() < arch.rails.size()) {
    rail_shift_.resize(arch.rails.size(), 0);
    rail_cores_.resize(arch.rails.size(), 0);
  }
  touched_rails_.clear();
  for (const int core : group.cores) {
    const int rail = rail_of_core[static_cast<std::size_t>(core)];
    SITAM_CHECK_MSG(rail >= 0, "core " << core << " on no rail");
    if (rail_cores_[static_cast<std::size_t>(rail)] == 0) {
      touched_rails_.push_back(rail);
    }
    ++rail_cores_[static_cast<std::size_t>(rail)];
    rail_shift_[static_cast<std::size_t>(rail)] += table_->woc_shift(
        core, arch.rails[static_cast<std::size_t>(rail)].width);
  }
  std::sort(touched_rails_.begin(), touched_rails_.end());
  out.group = group_index;
  out.duration = 0;
  out.bottleneck = -1;
  out.rails.assign(touched_rails_.begin(), touched_rails_.end());
  out.rail_busy.clear();
  out.rail_busy.reserve(touched_rails_.size());
  out.rail_shift.clear();
  out.rail_shift.reserve(touched_rails_.size());
  out.rail_count.clear();
  out.rail_count.reserve(touched_rails_.size());
  // Rails ascending + strict `>` means the bottleneck is the lowest-index
  // rail attaining the max busy time.
  for (const int rail : touched_rails_) {
    const std::int64_t shift = rail_shift_[static_cast<std::size_t>(rail)];
    const std::int64_t cores = rail_cores_[static_cast<std::size_t>(rail)];
    const std::int64_t t = rail_si_busy(shift, cores, group.patterns);
    out.rail_busy.push_back(t);
    out.rail_shift.push_back(shift);
    out.rail_count.push_back(static_cast<int>(cores));
    if (t > out.duration) {
      out.duration = t;
      out.bottleneck = rail;
    }
  }
  for (const int rail : touched_rails_) {
    rail_shift_[static_cast<std::size_t>(rail)] = 0;
    rail_cores_[static_cast<std::size_t>(rail)] = 0;
  }
}

void TamEvaluator::count_full_run() const {
  SITAM_COUNTER("tam.evaluator.evaluations", 1);
  SITAM_COUNTER("tam.evaluator.cache_misses", 1);
  ++stats_.evaluations;
  ++stats_.cache_misses;
}

Evaluation TamEvaluator::evaluate(const TamArchitecture& arch) const {
  count_full_run();
  return evaluate_reference(arch);
}

std::int64_t TamEvaluator::t_soc(const TamArchitecture& arch) const {
  count_full_run();
  return evaluate_reference(arch).t_soc;
}

Evaluation TamEvaluator::evaluate_reference(
    const TamArchitecture& arch) const {
  const int cores = soc_->core_count();
  Evaluation ev;
  ev.rails.resize(arch.rails.size());

  // Core -> rail map (scratch).
  rail_of_core_.assign(static_cast<std::size_t>(cores), -1);
  for (std::size_t r = 0; r < arch.rails.size(); ++r) {
    for (const int core : arch.rails[r].cores) {
      rail_of_core_[static_cast<std::size_t>(core)] = static_cast<int>(r);
    }
  }

  // InTest: sequential within a rail, parallel across rails. The dense
  // per-rail InTest array feeds the placement loop's release rule.
  rail_time_in_scratch_.assign(arch.rails.size(), 0);
  for (std::size_t r = 0; r < arch.rails.size(); ++r) {
    std::int64_t sum = 0;
    for (const int core : arch.rails[r].cores) {
      const std::int64_t t = table_->intest(core, arch.rails[r].width);
      InTestSlot slot;
      slot.core = core;
      slot.rail = static_cast<int>(r);
      slot.begin = sum;
      slot.end = sum + t;
      ev.intest.push_back(slot);
      sum += t;
    }
    ev.rails[r].time_in = sum;
    rail_time_in_scratch_[r] = sum;
    ev.t_in = std::max(ev.t_in, sum);
  }

  // SI test groups: duration, involved rails, bottleneck, per-rail busy
  // time (CalculateSITestTime over all groups). pending_scratch_ entries
  // are overwritten in place so their heap blocks survive across calls.
  std::size_t active = 0;
  for (std::size_t g = 0; g < tests_->groups.size(); ++g) {
    if (tests_->groups[g].patterns <= 0) continue;
    if (active == pending_scratch_.size()) pending_scratch_.emplace_back();
    si_group_timing_into(arch, static_cast<int>(g), rail_of_core_,
                         pending_scratch_[active]);
    ++active;
  }
  pending_scratch_.resize(active);
  for (const SiGroupTiming& item : pending_scratch_) {
    for (std::size_t k = 0; k < item.rails.size(); ++k) {
      ev.rails[static_cast<std::size_t>(item.rails[k])].time_si +=
          item.rail_busy[k];
    }
  }

  // Algorithm 1 (ScheduleSITest). The paper leaves "find s* in unSchedSI"
  // unspecified; the pick rule orders the candidate list (deterministic in
  // all cases). Both steps are shared with DeltaEvaluator (tam/schedule.h)
  // so the two paths stay bit-identical.
  detail::pick_order(pending_scratch_, options_.pick, order_scratch_);
  detail::schedule_pending(pending_scratch_, order_scratch_, *tests_,
                           options_, rail_time_in_scratch_, schedule_ws_,
                           ev.schedule);

  if (options_.interleave_phases) {
    // Item timestamps are absolute; T_soc is the combined makespan and
    // t_si reports the time the SI phase adds beyond InTest.
    ev.t_soc = std::max(ev.t_in, ev.schedule.makespan);
    ev.t_si = ev.t_soc - ev.t_in;
  } else {
    ev.t_si = ev.schedule.makespan;
    ev.t_soc = ev.t_in + ev.t_si;
  }
  for (RailTimes& rail : ev.rails) {
    rail.time_used = rail.time_in + rail.time_si;
  }
  return ev;
}

}  // namespace sitam
