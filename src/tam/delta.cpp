#include "tam/delta.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "obs/obs.h"
#include "tam/schedule.h"
#include "tam/verify.h"
#include "util/check.h"

namespace sitam {

namespace {

// Unmatched rails beyond which a step counts as a whole-architecture jump
// and falls back to the full path. Optimizer moves dirty at most two
// rails; the budget leaves headroom for compound moves without letting a
// rebase masquerade as a delta.
constexpr int kMaxDirtyRails = 6;

}  // namespace

DeltaEvaluator::DeltaEvaluator(const TamEvaluator& full) : full_(&full) {
  const SiTestSet& tests = full_->tests();
  const int core_count = full_->soc().core_count();
  const std::size_t group_count = tests.groups.size();
  base_groups_.resize(group_count);
  group_duration_.assign(group_count, 0);
  group_mark_.assign(group_count, 0);
  group_rails_changed_.assign(group_count, 0);
  for (std::size_t g = 0; g < group_count; ++g) {
    if (tests.groups[g].patterns > 0) {
      active_groups_.push_back(static_cast<int>(g));
    }
  }
  // CSR core -> active groups containing it (the dirty-group lookup). The
  // evaluator constructor already validated every group core against the
  // SOC, so the indices are in range.
  core_group_offsets_.assign(static_cast<std::size_t>(core_count) + 1, 0);
  for (const int g : active_groups_) {
    for (const int core : tests.groups[static_cast<std::size_t>(g)].cores) {
      ++core_group_offsets_[static_cast<std::size_t>(core) + 1];
    }
  }
  std::partial_sum(core_group_offsets_.begin(), core_group_offsets_.end(),
                   core_group_offsets_.begin());
  core_group_ids_.resize(
      static_cast<std::size_t>(core_group_offsets_.back()));
  std::vector<int> cursor(core_group_offsets_.begin(),
                          core_group_offsets_.end() - 1);
  for (const int g : active_groups_) {
    for (const int core : tests.groups[static_cast<std::size_t>(g)].cores) {
      core_group_ids_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(core)]++)] = g;
    }
  }
}

void DeltaEvaluator::step(const TamArchitecture& arch) {
  if (!try_delta(arch)) rebase(arch);
  SITAM_DCHECK_MSG(has_base_, "step left no cached state behind");
}

const Evaluation& DeltaEvaluator::evaluate(const TamArchitecture& arch) {
  step(arch);
  fresh_schedule(arch);
  materialize(arch);
  SITAM_DCHECK_MSG(eval_valid_, "evaluate returned a stale materialization");
  return base_eval_;
}

std::int64_t DeltaEvaluator::t_soc(const TamArchitecture& arch) {
  step(arch);
  fresh_schedule(arch);
  SITAM_DCHECK_MSG(!schedule_stale_, "t_soc over a stale schedule");
  return t_soc_;
}

const std::vector<RailTimes>& DeltaEvaluator::rail_times(
    const TamArchitecture& arch) {
  step(arch);
  materialize_rails();
  SITAM_DCHECK_MSG(base_eval_.rails.size() == arch.rails.size(),
                   "rail_times does not describe the architecture");
#if SITAM_DCHECKS_ENABLED
  SITAM_DCHECK_MSG(base_eval_.rails == full_->evaluate_reference(arch).rails,
                   "delta/full divergence in the per-rail times");
#endif
  return base_eval_.rails;
}

void DeltaEvaluator::fresh_schedule(
    [[maybe_unused]] const TamArchitecture& arch) {
  if (schedule_stale_) replay();
#if SITAM_DCHECKS_ENABLED
  materialize(arch);
  const std::vector<std::string> problems =
      verify_delta_consistency(base_eval_, full_->evaluate_reference(arch));
  SITAM_DCHECK_MSG(problems.empty(),
                   "delta/full divergence: "
                       << (problems.empty() ? "" : problems.front()));
#endif
}

void DeltaEvaluator::replay() {
  SITAM_DCHECK_MSG(has_base_ && schedule_stale_,
                   "replay without a stale cached schedule");
  ++breakdown_.replays;
  SITAM_COUNTER("tam.delta.replays", 1);
  detail::schedule_pending(base_groups_, base_order_, full_->tests(),
                           full_->options(), rail_time_in_, schedule_ws_,
                           base_eval_.schedule);
  makespan_ = base_eval_.schedule.makespan;
  refresh_totals();
  schedule_stale_ = false;
}

void DeltaEvaluator::invalidate() { has_base_ = false; }

EvaluatorStats DeltaEvaluator::stats() const {
  EvaluatorStats combined = full_->stats();
  combined += local_;
  return combined;
}

void DeltaEvaluator::refresh_totals() {
  SITAM_DCHECK_MSG(t_in_ >= 0 && makespan_ >= 0,
                   "refresh_totals on negative cached times");
  if (full_->options().interleave_phases) {
    t_soc_ = std::max(t_in_, makespan_);
    t_si_ = t_soc_ - t_in_;
  } else {
    t_si_ = makespan_;
    t_soc_ = t_in_ + t_si_;
  }
}

void DeltaEvaluator::materialize_rails() {
  if (rails_valid_) return;
  SITAM_DCHECK_MSG(rail_time_si_.size() == rail_time_in_.size(),
                   "per-rail SoA arrays out of sync");
  const std::size_t rail_count = rail_time_in_.size();
  base_eval_.rails.resize(rail_count);
  for (std::size_t r = 0; r < rail_count; ++r) {
    RailTimes& rail = base_eval_.rails[r];
    rail.time_in = rail_time_in_[r];
    rail.time_si = rail_time_si_[r];
    rail.time_used = rail.time_in + rail.time_si;
  }
  rails_valid_ = true;
}

void DeltaEvaluator::materialize(const TamArchitecture& arch) {
  if (eval_valid_) return;
  materialize_rails();
  base_eval_.t_in = t_in_;
  base_eval_.t_si = t_si_;
  base_eval_.t_soc = t_soc_;
  // InTest slots rail-major in core order — the exact layout
  // evaluate_reference produces. Only evaluate() pays for this; t_soc() and
  // rail_times() never reach here.
  const TestTimeTable& table = full_->table();
  base_eval_.intest.clear();
  for (std::size_t r = 0; r < arch.rails.size(); ++r) {
    std::int64_t sum = 0;
    for (const int core : arch.rails[r].cores) {
      const std::int64_t t = table.intest(core, arch.rails[r].width);
      InTestSlot slot;
      slot.core = core;
      slot.rail = static_cast<int>(r);
      slot.begin = sum;
      slot.end = sum + t;
      base_eval_.intest.push_back(slot);
      sum += t;
    }
    SITAM_DCHECK_MSG(sum == rail_time_in_[r],
                     "cached InTest time of rail " << r
                                                   << " disagrees with the "
                                                      "wrapper table");
  }
  eval_valid_ = true;
}

bool DeltaEvaluator::try_delta(const TamArchitecture& arch) {
  if (!has_base_) {
    ++breakdown_.no_base;
    SITAM_COUNTER("tam.delta.fallback_no_base", 1);
    return false;
  }
  const std::size_t rail_count = arch.rails.size();
  const std::size_t base_count = rail_width_.size();

  // Match every new rail against an unused cached rail with the same width
  // and cores: its own position first (the common case for optimizer
  // moves), then the cached rail holding its first core, the only other one
  // it can match, since rails are disjoint. The rest are dirty.
  match_.assign(rail_count, -1);
  old2new_.assign(base_count, -1);
  int dirty_rails = 0;
  int last_found = -1;
  bool positional = rail_count == base_count;
  bool monotone = true;
  for (std::size_t r = 0; r < rail_count; ++r) {
    const TestRail& rail = arch.rails[r];
    const auto matches = [&](int b) {
      const auto i = static_cast<std::size_t>(b);
      return b >= 0 && old2new_[i] < 0 && rail_width_[i] == rail.width &&
             rail_cores_[i] == rail.cores;
    };
    int found = static_cast<int>(r);
    if (r >= base_count || !matches(found)) {
      found = rail.cores.empty()
                  ? -1
                  : rail_of_core_[static_cast<std::size_t>(rail.cores.front())];
      if (!matches(found)) {
        ++dirty_rails;
        continue;
      }
    }
    match_[r] = found;
    old2new_[static_cast<std::size_t>(found)] = static_cast<int>(r);
    positional = positional && found == static_cast<int>(r);
    monotone = monotone && found > last_found;
    last_found = found;
  }
  // Surviving rails that changed their relative order are a jump too:
  // Algorithm 2 never reorders them, and annealing chains rarely do.
  if (dirty_rails > kMaxDirtyRails || !monotone) {
    ++breakdown_.dirty_fallbacks;
    SITAM_COUNTER("tam.delta.fallback_dirty_budget", 1);
    return false;
  }
  // Identity: every rail matched its own position, so every cached field,
  // the schedule included, already describes the architecture. Scoring
  // loops re-query the incumbent constantly.
  if (positional && dirty_rails == 0) {
    ++local_.evaluations;
    ++local_.delta_hits;
    ++breakdown_.delta_hits;
    ++breakdown_.identity_hits;
    SITAM_COUNTER("tam.evaluator.evaluations", 1);
    SITAM_COUNTER("tam.evaluator.delta_hits", 1);
    SITAM_COUNTER("tam.delta.identity_hits", 1);
    return true;
  }

  // From here on the cached state is patched in place. A later fallback
  // (order check) is still safe: rebase() rebuilds every field from
  // scratch and never reads the half-patched state.

  // Dirty groups — the groups whose CalculateSITestTime inputs changed. A
  // group's timing depends only on each member core's (rail index, rail
  // width) pair, so a core is *affected* iff its rail assignment changed or
  // its rail's width changed. On the positional path the cached width and
  // the still-unpatched core -> rail map decide both tests per core:
  // cores that merely stayed on a rail that lost or gained other members
  // affect nothing, which shrinks a single-core move's dirty set from
  // "every group touching either rail" to just the moved core's groups.
  // A shift falls back to the conservative rule (any core on a dirty
  // rail), since rail identity itself is in flux there.
  dirty_groups_.clear();
  const auto mark_core_groups = [this](int core) {
    const std::size_t begin =
        static_cast<std::size_t>(core_group_offsets_[core]);
    const std::size_t end = static_cast<std::size_t>(
        core_group_offsets_[static_cast<std::size_t>(core) + 1]);
    for (std::size_t i = begin; i < end; ++i) {
      const int g = core_group_ids_[i];
      if (group_mark_[static_cast<std::size_t>(g)] == 0) {
        group_mark_[static_cast<std::size_t>(g)] = 1;
        dirty_groups_.push_back(g);
      }
    }
  };
  affected_scratch_.clear();
  for (std::size_t r = 0; r < rail_count; ++r) {
    if (match_[r] >= 0) continue;
    const int new_width = arch.rails[r].width;
    const bool width_changed = !positional || rail_width_[r] != new_width;
    for (const int core : arch.rails[r].cores) {
      const int prev = rail_of_core_[static_cast<std::size_t>(core)];
      if (width_changed || prev != static_cast<int>(r)) {
        mark_core_groups(core);
        if (positional) {
          // The core's previous rail lost it, so it is unmatched too and
          // rail_width_[prev] still holds its base width — the width the
          // core's retired contribution was computed with.
          SITAM_DCHECK_MSG(prev >= 0 && match_[static_cast<std::size_t>(
                                            prev)] < 0,
                           "moved core " << core
                                         << " left a matched rail " << prev);
          affected_scratch_.push_back(
              {core, prev, static_cast<int>(r),
               rail_width_[static_cast<std::size_t>(prev)], new_width});
        }
      }
    }
  }
  // group_mark_ stays set until the end of the patch (the clean-group
  // remap below consults it); every exit path from here on clears it.
  const auto clear_marks = [this] {
    for (const int g : dirty_groups_) {
      group_mark_[static_cast<std::size_t>(g)] = 0;
    }
  };

  // Retire the dirty groups' SI busy contributions in the OLD rail index
  // space, before any shift. On the positional path clean groups may
  // legitimately keep busy time on a dirty rail (a rail that lost or
  // gained other cores at unchanged width), and those contributions stay
  // valid; on the shifted path the conservative marking above
  // guarantees clean groups touch only matched rails, so every retired
  // cached rail carries exactly zero residual busy time.
  for (const int g : dirty_groups_) {
    const SiGroupTiming& cached = base_groups_[static_cast<std::size_t>(g)];
    SITAM_DCHECK_MSG(cached.group == g,
                     "cached timing missing for dirty group " << g);
    for (std::size_t k = 0; k < cached.rails.size(); ++k) {
      rail_time_si_[static_cast<std::size_t>(cached.rails[k])] -=
          cached.rail_busy[k];
    }
  }

  // Bring the per-rail SoA arrays into the new rail index space. The
  // positional case (every matched rail at its own position — all small
  // optimizer moves) moves no time data and copies only the dirty rails'
  // content; a shift routes matched times through the scratch arrays and
  // recopies every rail's content (matched rails' content is unchanged).
  if (positional) {
    for (std::size_t r = 0; r < rail_count; ++r) {
      if (match_[r] >= 0) continue;
      rail_width_[r] = arch.rails[r].width;
      rail_cores_[r] = arch.rails[r].cores;
      // rail_time_si_[r] keeps its clean-group residual; the dirty groups'
      // contributions were subtracted above and are re-added after their
      // recompute below.
    }
  } else {
    time_in_scratch_.assign(rail_count, 0);
    time_si_scratch_.assign(rail_count, 0);
    for (std::size_t b = 0; b < base_count; ++b) {
      const int r = old2new_[b];
      if (r < 0) continue;
      time_in_scratch_[static_cast<std::size_t>(r)] = rail_time_in_[b];
      time_si_scratch_[static_cast<std::size_t>(r)] = rail_time_si_[b];
    }
    rail_time_in_.swap(time_in_scratch_);
    rail_time_si_.swap(time_si_scratch_);
    copy_rail_content(arch);
  }

  // Patch the core -> rail map (si_group_timing_into and the next match
  // pass both consume it). Retired cached rails' cores are exactly the
  // dirty rails' cores, so rewriting the dirty rails' entries covers every
  // stale slot; a shift additionally renames the clean entries.
  if (!positional) {
    for (int& rail : rail_of_core_) {
      rail = rail >= 0 ? old2new_[static_cast<std::size_t>(rail)] : -1;
    }
  }
  for (std::size_t r = 0; r < rail_count; ++r) {
    if (match_[r] >= 0) continue;
    for (const int core : arch.rails[r].cores) {
      rail_of_core_[static_cast<std::size_t>(core)] = static_cast<int>(r);
    }
  }

  // Dirty rails rerun the InTest sum from the wrapper table. On the
  // positional path the slot still holds the retired rail's InTest time,
  // so this doubles as the "did any release input move?" probe the
  // interleaved skip-replay check needs.
  const TestTimeTable& table = full_->table();
  bool dirty_time_in_changed = !positional;
  for (std::size_t r = 0; r < rail_count; ++r) {
    if (match_[r] >= 0) continue;
    std::int64_t sum = 0;
    for (const int core : arch.rails[r].cores) {
      sum += table.intest(core, arch.rails[r].width);
    }
    if (sum != rail_time_in_[r]) dirty_time_in_changed = true;
    rail_time_in_[r] = sum;
  }

  // Clean groups keep their cached timing; a shift only renames their rail
  // indices. The renaming is monotone (rails were removed or inserted, not
  // reordered: the match pass rejects that), so it preserves both the
  // ascending rail order and the lowest-index-max bottleneck rule.
  if (!positional) {
    for (const int g : active_groups_) {
      if (group_mark_[static_cast<std::size_t>(g)] != 0) continue;
      SiGroupTiming& cached = base_groups_[static_cast<std::size_t>(g)];
      SITAM_DCHECK_MSG(cached.group == g,
                       "cached timing missing for clean group " << g);
      for (int& rail : cached.rails) {
        rail = old2new_[static_cast<std::size_t>(rail)];
        SITAM_DCHECK_MSG(rail >= 0,
                         "clean group " << g << " on a retired rail");
      }
      cached.bottleneck = old2new_[static_cast<std::size_t>(cached.bottleneck)];
    }
  }

  // Dirty groups rerun CalculateSITestTime — but on the positional path
  // the rerun is an in-place patch, not a walk over every member core. A
  // group's per-rail inputs (Σ WOC shift, member count) are cached in its
  // SiGroupTiming, and the affected-core list knows exactly which
  // contributions moved: subtract each affected core's old (rail, width)
  // term, add its new one, then rebuild the busy times from the patched
  // inputs. A single-core move on a 32-core group costs two sorted-vector
  // updates and one busy sweep instead of 32 table walks. Track whether
  // any schedule-relevant field — duration, involved rails, bottleneck —
  // actually changed: the optimizer's ±1-wire probes frequently land on
  // widths where no ceil(WOC/width) boundary moves, and those need no
  // schedule replay at all.
  bool durations_changed = false;
  bool structure_changed = !positional;
  if (positional) {
    const TestTimeTable& woc_table = full_->table();
    for (const AffectedCore& a : affected_scratch_) {
      const std::size_t begin =
          static_cast<std::size_t>(core_group_offsets_[a.core]);
      const std::size_t end = static_cast<std::size_t>(
          core_group_offsets_[static_cast<std::size_t>(a.core) + 1]);
      for (std::size_t i = begin; i < end; ++i) {
        const int g = core_group_ids_[i];
        SiGroupTiming& cached = base_groups_[static_cast<std::size_t>(g)];
        SITAM_DCHECK_MSG(group_mark_[static_cast<std::size_t>(g)] != 0,
                         "affected core " << a.core
                                          << " touches a clean group " << g);
        if (a.old_rail == a.new_rail) {
          // Width-only change: one entry, no membership movement.
          const auto it = std::lower_bound(cached.rails.begin(),
                                           cached.rails.end(), a.old_rail);
          SITAM_DCHECK_MSG(it != cached.rails.end() && *it == a.old_rail,
                           "group " << g << " missing rail " << a.old_rail);
          const std::size_t k = static_cast<std::size_t>(
              std::distance(cached.rails.begin(), it));
          cached.rail_shift[k] += woc_table.woc_shift(a.core, a.new_width) -
                                  woc_table.woc_shift(a.core, a.old_width);
          continue;
        }
        {
          const auto it = std::lower_bound(cached.rails.begin(),
                                           cached.rails.end(), a.old_rail);
          SITAM_DCHECK_MSG(it != cached.rails.end() && *it == a.old_rail,
                           "group " << g << " missing rail " << a.old_rail);
          const std::size_t k = static_cast<std::size_t>(
              std::distance(cached.rails.begin(), it));
          cached.rail_shift[k] -= woc_table.woc_shift(a.core, a.old_width);
          if (--cached.rail_count[k] == 0) {
            cached.rails.erase(it);
            cached.rail_shift.erase(cached.rail_shift.begin() +
                                    static_cast<std::ptrdiff_t>(k));
            cached.rail_count.erase(cached.rail_count.begin() +
                                    static_cast<std::ptrdiff_t>(k));
            cached.rail_busy.erase(cached.rail_busy.begin() +
                                   static_cast<std::ptrdiff_t>(k));
            group_rails_changed_[static_cast<std::size_t>(g)] = 1;
          }
        }
        {
          const auto it = std::lower_bound(cached.rails.begin(),
                                           cached.rails.end(), a.new_rail);
          std::size_t k = static_cast<std::size_t>(
              std::distance(cached.rails.begin(), it));
          if (it == cached.rails.end() || *it != a.new_rail) {
            cached.rails.insert(it, a.new_rail);
            cached.rail_shift.insert(cached.rail_shift.begin() +
                                         static_cast<std::ptrdiff_t>(k),
                                     0);
            cached.rail_count.insert(cached.rail_count.begin() +
                                         static_cast<std::ptrdiff_t>(k),
                                     0);
            cached.rail_busy.insert(cached.rail_busy.begin() +
                                        static_cast<std::ptrdiff_t>(k),
                                    0);
            group_rails_changed_[static_cast<std::size_t>(g)] = 1;
          }
          cached.rail_shift[k] += woc_table.woc_shift(a.core, a.new_width);
          ++cached.rail_count[k];
        }
      }
    }
    for (const int g : dirty_groups_) {
      SiGroupTiming& cached = base_groups_[static_cast<std::size_t>(g)];
      SITAM_DCHECK_MSG(cached.group == g,
                       "cached timing missing for dirty group " << g);
      const std::int64_t old_duration = cached.duration;
      const int old_bottleneck = cached.bottleneck;
      const std::int64_t patterns =
          full_->tests().groups[static_cast<std::size_t>(g)].patterns;
      cached.duration = 0;
      cached.bottleneck = -1;
      for (std::size_t k = 0; k < cached.rails.size(); ++k) {
        const std::int64_t t = full_->rail_si_busy(
            cached.rail_shift[k], cached.rail_count[k], patterns);
        cached.rail_busy[k] = t;
        rail_time_si_[static_cast<std::size_t>(cached.rails[k])] += t;
        if (t > cached.duration) {
          cached.duration = t;
          cached.bottleneck = cached.rails[k];
        }
      }
      group_duration_[static_cast<std::size_t>(g)] = cached.duration;
      if (cached.duration != old_duration) {
        durations_changed = true;
        structure_changed = true;
      }
      if (cached.bottleneck != old_bottleneck ||
          group_rails_changed_[static_cast<std::size_t>(g)] != 0) {
        structure_changed = true;
      }
      group_rails_changed_[static_cast<std::size_t>(g)] = 0;
    }
  } else {
    for (const int g : dirty_groups_) {
      SiGroupTiming& cached = base_groups_[static_cast<std::size_t>(g)];
      full_->si_group_timing_into(arch, g, rail_of_core_, timing_scratch_);
      if (timing_scratch_.duration != cached.duration) {
        durations_changed = true;
      }
      std::swap(cached, timing_scratch_);
      group_duration_[static_cast<std::size_t>(g)] = cached.duration;
      for (std::size_t k = 0; k < cached.rails.size(); ++k) {
        rail_time_si_[static_cast<std::size_t>(cached.rails[k])] +=
            cached.rail_busy[k];
      }
    }
  }

  // The cached pick order must still be sorted under the patched durations
  // — the pick rule is a strict total order (tam/schedule.h), so "still
  // sorted" is equivalent to "re-sorting would reproduce it". Only changed
  // durations can unsort it, and when they do, re-sorting the cached order
  // in place reproduces pick_order() exactly (a strict total order has one
  // sorted sequence) at O(n log n) over the handful of active groups. This
  // used to be a fallback — abandoning the patched state for a full
  // evaluation plus a rebase, the two most expensive operations the delta
  // path knows — and it fired on most real duration changes, since
  // longest-first ordering is sensitive to exactly the durations a move
  // perturbs. durations_changed already forced structure_changed above, so
  // the replay below re-places the re-sorted order.
  if (durations_changed &&
      !detail::order_is_sorted(base_groups_, full_->options().pick,
                               base_order_)) {
    detail::sort_order(base_groups_, full_->options().pick, base_order_);
    ++breakdown_.order_resorts;
    SITAM_COUNTER("tam.delta.order_resorts", 1);
  }
  clear_marks();

  t_in_ = 0;
  for (const std::int64_t t : rail_time_in_) t_in_ = std::max(t_in_, t);

  // The shared Algorithm-1 placement loop must run again (lazily, in
  // fresh_schedule) unless the move provably could not have changed the
  // schedule: rail indices stable (positional), no dirty group changed its
  // (duration, rails, bottleneck), and the release times unaffected
  // (trivially so without interleaving, where every release is zero; with
  // it, no dirty rail changed its InTest time — clean rails never do). The
  // optimizer's ±1-wire probes often land on widths where no
  // ceil(WOC/width) boundary moves. A skip needs a fresh cached schedule;
  // once stale it stays stale until replayed.
  if (structure_changed ||
      (full_->options().interleave_phases && dirty_time_in_changed)) {
    schedule_stale_ = true;
  } else if (!schedule_stale_) {
    ++breakdown_.replay_skips;
    SITAM_COUNTER("tam.delta.replay_skips", 1);
  }
  if (!schedule_stale_) refresh_totals();
  rails_valid_ = false;
  eval_valid_ = false;

  ++local_.evaluations;
  ++local_.delta_hits;
  ++breakdown_.delta_hits;
  SITAM_COUNTER("tam.evaluator.evaluations", 1);
  SITAM_COUNTER("tam.evaluator.delta_hits", 1);
  return true;
}

void DeltaEvaluator::copy_rail_content(const TamArchitecture& arch) {
  const std::size_t rail_count = arch.rails.size();
  rail_width_.resize(rail_count);
  if (rail_cores_.size() < rail_count) rail_cores_.resize(rail_count);
  for (std::size_t r = 0; r < rail_count; ++r) {
    // Sorted cores make the vector a canonical key for the core set.
    SITAM_DCHECK_MSG(std::is_sorted(arch.rails[r].cores.begin(),
                                    arch.rails[r].cores.end()),
                     "rail " << r << " cores not sorted");
    rail_width_[r] = arch.rails[r].width;
    rail_cores_[r] = arch.rails[r].cores;
  }
}

void DeltaEvaluator::rebase(const TamArchitecture& arch) {
  SITAM_TRACE_SPAN("tam.delta.rebase");
  ++breakdown_.rebases;
  SITAM_COUNTER("tam.delta.rebases", 1);
  // A plain full evaluation through the wrapped evaluator (one counted
  // ScheduleSITest run).
  base_eval_ = full_->evaluate(arch);
  const std::size_t rail_count = arch.rails.size();
  SITAM_CHECK_MSG(base_eval_.rails.size() == rail_count,
                  "full evaluation does not describe the architecture");

  copy_rail_content(arch);
  rail_time_in_.resize(rail_count);
  rail_time_si_.resize(rail_count);
  for (std::size_t r = 0; r < rail_count; ++r) {
    rail_time_in_[r] = base_eval_.rails[r].time_in;
    rail_time_si_[r] = base_eval_.rails[r].time_si;
  }

  const int core_count = full_->soc().core_count();
  rail_of_core_.assign(static_cast<std::size_t>(core_count), -1);
  for (std::size_t r = 0; r < rail_count; ++r) {
    for (const int core : arch.rails[r].cores) {
      rail_of_core_[static_cast<std::size_t>(core)] = static_cast<int>(r);
    }
  }

  for (const int g : active_groups_) {
    SiGroupTiming& slot = base_groups_[static_cast<std::size_t>(g)];
    full_->si_group_timing_into(arch, g, rail_of_core_, slot);
    group_duration_[static_cast<std::size_t>(g)] = slot.duration;
  }
  base_order_ = active_groups_;
  detail::sort_order(base_groups_, full_->options().pick, base_order_);

  t_in_ = base_eval_.t_in;
  t_si_ = base_eval_.t_si;
  t_soc_ = base_eval_.t_soc;
  makespan_ = base_eval_.schedule.makespan;
  rails_valid_ = true;
  eval_valid_ = true;
  schedule_stale_ = false;
  has_base_ = true;
}

}  // namespace sitam
