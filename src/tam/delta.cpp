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

// The non-sum half of the match key: width and core count packed into one
// comparable word (both fit 32 bits by validate()'s range checks).
inline std::uint64_t rail_shape_word(const TestRail& rail) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rail.width))
          << 32) |
         static_cast<std::uint64_t>(rail.cores.size());
}

}  // namespace

DeltaEvaluator::DeltaEvaluator(const TamEvaluator& full,
                               const DeltaOptions& options)
    : full_(&full), options_(options) {
  SITAM_CHECK_MSG(options_.max_dirty_rails >= 0,
                  "DeltaEvaluator: max_dirty_rails must be non-negative");
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
  materialize(arch);
  SITAM_DCHECK_MSG(eval_valid_, "evaluate returned a stale materialization");
  return base_eval_;
}

std::int64_t DeltaEvaluator::t_soc(const TamArchitecture& arch) {
  step(arch);
  SITAM_DCHECK_MSG(has_base_, "t_soc with no cached state");
  return t_soc_;
}

const std::vector<RailTimes>& DeltaEvaluator::rail_times(
    const TamArchitecture& arch) {
  step(arch);
  materialize_rails();
  SITAM_DCHECK_MSG(base_eval_.rails.size() == arch.rails.size(),
                   "rail_times does not describe the architecture");
  return base_eval_.rails;
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
  const std::size_t base_count = rail_sum0_.size();

  // Pass A — identity shortcut: the architecture matches rail-for-rail to
  // the cached base, so every cached field (including the schedule) already
  // describes it. Scoring loops re-query the incumbent constantly; with the
  // incremental hash cache warm this is pure loads and compares — no
  // SplitMix64 at all.
  if (rail_count == base_count) {
    bool identity = true;
    for (std::size_t r = 0; r < rail_count; ++r) {
      const auto [sum0, sum1] = arch.rails[r].hash_sums();
      if (sum0 != rail_sum0_[r] || sum1 != rail_sum1_[r] ||
          rail_shape_word(arch.rails[r]) != rail_shape_[r]) {
        identity = false;
        break;
      }
    }
    if (identity) {
      ++local_.evaluations;
      ++local_.delta_hits;
      ++breakdown_.delta_hits;
      ++breakdown_.identity_hits;
      SITAM_COUNTER("tam.evaluator.evaluations", 1);
      SITAM_COUNTER("tam.evaluator.delta_hits", 1);
      SITAM_COUNTER("tam.delta.identity_hits", 1);
      return true;
    }
  }

  // Pass B — match every new rail against an unused cached rail: own
  // position first (the overwhelmingly common case for optimizer moves),
  // then the lowest-index unused cached rail with the same match key.
  // Unmatched new rails are dirty.
  match_.assign(rail_count, -1);
  old2new_.assign(base_count, -1);
  base_used_.assign(base_count, 0);
  sum0_scratch_.resize(rail_count);
  sum1_scratch_.resize(rail_count);
  shape_scratch_.resize(rail_count);
  int dirty_rails = 0;
  bool positional = rail_count == base_count;
  for (std::size_t r = 0; r < rail_count; ++r) {
    const auto [sum0, sum1] = arch.rails[r].hash_sums();
    const std::uint64_t shape = rail_shape_word(arch.rails[r]);
    sum0_scratch_[r] = sum0;
    sum1_scratch_[r] = sum1;
    shape_scratch_[r] = shape;
    int found = -1;
    if (r < base_count && base_used_[r] == 0 && rail_sum0_[r] == sum0 &&
        rail_sum1_[r] == sum1 && rail_shape_[r] == shape) {
      found = static_cast<int>(r);
    } else {
      for (std::size_t b = 0; b < base_count; ++b) {
        if (base_used_[b] == 0 && rail_sum0_[b] == sum0 &&
            rail_sum1_[b] == sum1 && rail_shape_[b] == shape) {
          found = static_cast<int>(b);
          break;
        }
      }
    }
    if (found >= 0) {
      match_[r] = found;
      old2new_[static_cast<std::size_t>(found)] = static_cast<int>(r);
      base_used_[static_cast<std::size_t>(found)] = 1;
      if (found != static_cast<int>(r)) positional = false;
    } else {
      ++dirty_rails;
    }
  }
  if (dirty_rails > options_.max_dirty_rails) {
    ++breakdown_.dirty_fallbacks;
    SITAM_COUNTER("tam.delta.fallback_dirty_budget", 1);
    return false;
  }

  // From here on the cached state is patched in place. A later fallback
  // (order check) is still safe: rebase() rebuilds every field from
  // scratch and never reads the half-patched state.

  // Dirty groups — the groups whose CalculateSITestTime inputs changed. A
  // group's timing depends only on each member core's (rail index, rail
  // width) pair, so a core is *affected* iff its rail assignment changed or
  // its rail's width changed. On the positional path the cached shape word
  // and the still-unpatched core -> rail map decide both tests per core:
  // cores that merely stayed on a rail that lost or gained other members
  // affect nothing, which shrinks a single-core move's dirty set from
  // "every group touching either rail" to just the moved core's groups.
  // A permutation falls back to the conservative rule (any core on a dirty
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
    const bool width_changed =
        !positional ||
        (rail_shape_[r] >> 32) !=
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(new_width));
    for (const int core : arch.rails[r].cores) {
      const int prev = rail_of_core_[static_cast<std::size_t>(core)];
      if (width_changed || prev != static_cast<int>(r)) {
        mark_core_groups(core);
        if (positional) {
          // The core's previous rail lost it, so it is unmatched too and
          // rail_shape_[prev] still holds its base width — the width the
          // core's retired contribution was computed with.
          SITAM_DCHECK_MSG(prev >= 0 && match_[static_cast<std::size_t>(
                                            prev)] < 0,
                           "moved core " << core
                                         << " left a matched rail " << prev);
          affected_scratch_.push_back(
              {core, prev, static_cast<int>(r),
               static_cast<int>(rail_shape_[static_cast<std::size_t>(prev)] >>
                                32),
               new_width});
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
  // space, before any permutation. On the positional path clean groups may
  // legitimately keep busy time on a dirty rail (a rail that lost or
  // gained other cores at unchanged width), and those contributions stay
  // valid; on the permutation path the conservative marking above
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
  // optimizer moves) needs no data movement at all; a permutation routes
  // matched entries through the scratch arrays.
  bool monotone_remap = true;
  if (positional) {
    for (std::size_t r = 0; r < rail_count; ++r) {
      if (match_[r] >= 0) continue;
      rail_sum0_[r] = sum0_scratch_[r];
      rail_sum1_[r] = sum1_scratch_[r];
      rail_shape_[r] = shape_scratch_[r];
      // rail_time_si_[r] keeps its clean-group residual; the dirty groups'
      // contributions were subtracted above and are re-added after their
      // recompute below.
    }
  } else {
    time_in_scratch_.assign(rail_count, 0);
    time_si_scratch_.assign(rail_count, 0);
    int prev_new = -1;
    for (std::size_t b = 0; b < base_count; ++b) {
      const int r = old2new_[b];
      if (r < 0) continue;
      if (r < prev_new) monotone_remap = false;
      prev_new = r;
      time_in_scratch_[static_cast<std::size_t>(r)] = rail_time_in_[b];
      time_si_scratch_[static_cast<std::size_t>(r)] = rail_time_si_[b];
    }
    rail_time_in_.swap(time_in_scratch_);
    rail_time_si_.swap(time_si_scratch_);
    rail_sum0_.swap(sum0_scratch_);
    rail_sum1_.swap(sum1_scratch_);
    rail_shape_.swap(shape_scratch_);
  }

  // Patch the core -> rail map (si_group_timing_into and the next match
  // pass both consume it). Retired cached rails' cores are exactly the
  // dirty rails' cores, so rewriting the dirty rails' entries covers every
  // stale slot; a permutation additionally renames the clean entries.
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

  // Clean groups keep their cached timing; a permutation only renames
  // their rail indices. A monotone renaming (rail removal/insertion —
  // merges and splits) preserves both the ascending rail order and the
  // lowest-index-max bottleneck rule, so it is a straight in-place rewrite;
  // a general permutation re-sorts the (rail, busy) pairs exactly like
  // si_group_timing_into would have produced them.
  if (!positional) {
    for (const int g : active_groups_) {
      if (group_mark_[static_cast<std::size_t>(g)] != 0) continue;
      SiGroupTiming& cached = base_groups_[static_cast<std::size_t>(g)];
      SITAM_DCHECK_MSG(cached.group == g,
                       "cached timing missing for clean group " << g);
      if (monotone_remap) {
        for (int& rail : cached.rails) {
          rail = old2new_[static_cast<std::size_t>(rail)];
          SITAM_DCHECK_MSG(rail >= 0, "clean group " << g
                                                     << " on a retired rail");
        }
        cached.bottleneck =
            old2new_[static_cast<std::size_t>(cached.bottleneck)];
      } else {
        // Sort (remapped rail, source index) pairs, then permute every
        // parallel array — busy times and the cached (shift, count)
        // inputs — through the timing scratch in one pass.
        remap_scratch_.clear();
        for (std::size_t k = 0; k < cached.rails.size(); ++k) {
          const int remapped =
              old2new_[static_cast<std::size_t>(cached.rails[k])];
          SITAM_DCHECK_MSG(remapped >= 0,
                           "clean group " << g << " on a retired rail");
          remap_scratch_.emplace_back(remapped,
                                      static_cast<std::int64_t>(k));
        }
        std::sort(remap_scratch_.begin(), remap_scratch_.end());
        const std::size_t n = remap_scratch_.size();
        timing_scratch_.rails.resize(n);
        timing_scratch_.rail_busy.resize(n);
        timing_scratch_.rail_shift.resize(n);
        timing_scratch_.rail_count.resize(n);
        cached.bottleneck = -1;
        std::int64_t best = 0;
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t src =
              static_cast<std::size_t>(remap_scratch_[k].second);
          timing_scratch_.rails[k] = remap_scratch_[k].first;
          timing_scratch_.rail_busy[k] = cached.rail_busy[src];
          timing_scratch_.rail_shift[k] = cached.rail_shift[src];
          timing_scratch_.rail_count[k] = cached.rail_count[src];
          if (cached.rail_busy[src] > best) {
            best = cached.rail_busy[src];
            cached.bottleneck = remap_scratch_[k].first;
          }
        }
        cached.rails.swap(timing_scratch_.rails);
        cached.rail_busy.swap(timing_scratch_.rail_busy);
        cached.rail_shift.swap(timing_scratch_.rail_shift);
        cached.rail_count.swap(timing_scratch_.rail_count);
        SITAM_DCHECK_MSG(best == cached.duration,
                         "remapped group " << g << " changed duration");
      }
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

  // Replay the shared Algorithm-1 placement loop — or skip it when the
  // move provably could not have changed the schedule: rail indices stable
  // (positional), no dirty group changed its (duration, rails, bottleneck),
  // and the release times unaffected (trivially so without interleaving,
  // where every release is zero; with it, no dirty rail changed its InTest
  // time — clean rails never do). The optimizer's ±1-wire probes often
  // land on widths where no ceil(WOC/width) boundary moves, and those cost
  // only the match pass and the dirty-group recompute here.
  if (!structure_changed &&
      (!full_->options().interleave_phases || !dirty_time_in_changed)) {
    ++breakdown_.replay_skips;
    SITAM_COUNTER("tam.delta.replay_skips", 1);
  } else {
    detail::schedule_pending(base_groups_, base_order_, full_->tests(),
                             full_->options(), rail_time_in_, schedule_ws_,
                             base_eval_.schedule);
    makespan_ = base_eval_.schedule.makespan;
  }
  refresh_totals();
  rails_valid_ = false;
  eval_valid_ = false;

#if SITAM_DCHECKS_ENABLED
  {
    materialize(arch);
    const std::vector<std::string> problems = verify_delta_consistency(
        base_eval_, full_->evaluate_reference(arch));
    SITAM_DCHECK_MSG(problems.empty(),
                     "delta/full divergence: "
                         << (problems.empty() ? "" : problems.front()));
  }
#endif

  ++local_.evaluations;
  ++local_.delta_hits;
  ++breakdown_.delta_hits;
  SITAM_COUNTER("tam.evaluator.evaluations", 1);
  SITAM_COUNTER("tam.evaluator.delta_hits", 1);
  return true;
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

  rail_sum0_.resize(rail_count);
  rail_sum1_.resize(rail_count);
  rail_shape_.resize(rail_count);
  rail_time_in_.resize(rail_count);
  rail_time_si_.resize(rail_count);
  for (std::size_t r = 0; r < rail_count; ++r) {
    const auto [sum0, sum1] = arch.rails[r].hash_sums();
    rail_sum0_[r] = sum0;
    rail_sum1_[r] = sum1;
    rail_shape_[r] = rail_shape_word(arch.rails[r]);
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
  has_base_ = true;
}

}  // namespace sitam
