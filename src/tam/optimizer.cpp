#include "tam/optimizer.h"

#include <algorithm>
#include <exception>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "tam/delta.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sitam {

namespace {

class Optimizer {
 public:
  Optimizer(const Soc& soc, const TestTimeTable& table, const SiTestSet& tests,
            int w_max, const OptimizerConfig& config)
      : soc_(soc),
        w_max_(w_max),
        config_(config),
        eval_(soc, table, tests, config.evaluator),
        delta_(eval_),
        bound_(eval_),
        probe_(eval_) {}

  OptimizeResult run(const std::vector<int>& core_order) {
    TamArchitecture arch = start_solution(core_order);
    bottom_up(arch);
    const int last_failed_id = top_down(arch);
    sweep(arch, last_failed_id);
    if (config_.core_reshuffle) core_reshuffle(arch);
    SITAM_CHECK_MSG(arch.total_width() == w_max_,
                    "optimizer lost wires: " << arch.total_width()
                                             << " != " << w_max_);
    arch.validate(soc_.core_count());
    OptimizeResult result;
    result.evaluation = evaluate(arch);
    result.architecture = std::move(arch);
    // The evaluator stack counts every evaluate() call — including the
    // direct ones above and in order_by_time_used/sweep, which a counter
    // in t_soc() alone would miss.
    result.stats = config_.delta_eval ? delta_.stats() : eval_.stats();
    return result;
  }

 private:
  [[nodiscard]] std::int64_t t_soc(const TamArchitecture& arch) const {
    // Delta path when enabled (full evaluation behind it); plain full
    // evaluator otherwise. Identical numbers either way.
    return config_.delta_eval ? delta_.t_soc(arch) : eval_.t_soc(arch);
  }

  [[nodiscard]] Evaluation evaluate(const TamArchitecture& arch) const {
    return config_.delta_eval ? delta_.evaluate(arch) : eval_.evaluate(arch);
  }

  /// Per-rail times of `arch` — the time_used scoring loops read nothing
  /// else, and the delta path serves them without materializing InTest
  /// slots or a schedule copy. The reference is invalidated by the next
  /// evaluation of any architecture.
  [[nodiscard]] const std::vector<RailTimes>& rail_times(
      const TamArchitecture& arch) const {
    if (config_.delta_eval) return delta_.rail_times(arch);
    eval_scratch_ = eval_.evaluate(arch);
    return eval_scratch_.rails;
  }

  [[nodiscard]] int fresh_id() { return next_id_++; }

  /// Rail indices sorted by time_used, descending (ties: lower index).
  [[nodiscard]] std::vector<std::size_t> order_by_time_used(
      const TamArchitecture& arch) const {
    const std::vector<RailTimes>& rails = rail_times(arch);
    std::vector<std::size_t> order(arch.rails.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (rails[a].time_used != rails[b].time_used) {
        return rails[a].time_used > rails[b].time_used;
      }
      return a < b;
    });
    return order;
  }

  // -------------------------------------------------------------------
  // Wire distribution (distributeFreeWires); the cheap rule, each wire to
  // the rail with the largest time_used, is CheapMergeBound's replay.
  // -------------------------------------------------------------------

  /// Precise rule (the paper's): each wire goes to the first rail whose
  /// extra wire minimizes T_soc — which is by definition a bottleneck rail.
  /// Rails are probed in (bound, index) order (WireProbeBound). A rail
  /// whose (bound, index) is above the best (T_soc, index) so far cannot
  /// be that rail, and neither can any rail after it, so the scan stops
  /// there (docs/algorithms.md §5, probe bound).
  void distribute_precise(TamArchitecture& arch, int wires) {
    if (wires <= 0) return;
    probe_.bind(arch, rail_times(arch));
    std::int64_t pruned = 0;
    for (int i = 0; i < wires; ++i) {
      probe_order_.resize(arch.rails.size());
      std::iota(probe_order_.begin(), probe_order_.end(), std::size_t{0});
      std::sort(probe_order_.begin(), probe_order_.end(),
                [&](std::size_t a, std::size_t b) {
                  const std::int64_t bound_a = probe_.bound(a);
                  const std::int64_t bound_b = probe_.bound(b);
                  return bound_a != bound_b ? bound_a < bound_b : a < b;
                });
      std::size_t best_rail = arch.rails.size();
      std::int64_t best_t = std::numeric_limits<std::int64_t>::max();
      for (std::size_t k = 0; k < probe_order_.size(); ++k) {
        const std::size_t r = probe_order_[k];
        const std::int64_t bound = probe_.bound(r);
        if (bound > best_t || (bound == best_t && r > best_rail)) {
          pruned += static_cast<std::int64_t>(probe_order_.size() - k);
          break;
        }
        ++arch.rails[r].width;
        const std::int64_t t = t_soc(arch);
        --arch.rails[r].width;
        if (t < best_t || (t == best_t && r < best_rail)) {
          best_t = t;
          best_rail = r;
        }
      }
      ++arch.rails[best_rail].width;
      probe_.widen(best_rail);
    }
    SITAM_COUNTER("tam.alg2.pruned_probes", pruned);
  }

  // -------------------------------------------------------------------
  // mergeTAMs
  // -------------------------------------------------------------------

  /// Builds arch minus rails a and b plus their merger at `width` into
  /// `out`. Copy-assignment reuses the core storage of out's rails.
  static void merge_into(const TamArchitecture& arch, std::size_t a,
                         std::size_t b, int width, int id,
                         TamArchitecture& out) {
    SITAM_DCHECK_MSG(a != b && &out != &arch, "merge_into: bad rail pair");
    out.rails.resize(arch.rails.size() - 1);
    std::size_t k = 0;
    for (std::size_t r = 0; r < arch.rails.size(); ++r) {
      if (r != a && r != b) out.rails[k++] = arch.rails[r];
    }
    TestRail& merged = out.rails.back();
    merged = arch.rails[a];
    merged.merge_cores_from(arch.rails[b]);
    merged.width = width;
    merged.id = id;
  }

  /// The paper's mergeTAMs: tries to merge rail `r1` with every other rail
  /// at every width in [max(w_i, w_1), w_i + w_1], distributing freed wires
  /// to bottleneck rails. Applies the best strictly-improving merge and
  /// returns true, else leaves arch untouched and returns false.
  ///
  /// Two lower bounds skip work without changing the result, since only
  /// t < best_t is accepted (docs/algorithms.md §5):
  ///  * a partner, when the merged rail alone at its widest cannot finish
  ///    below the best candidate so far (every candidate gives it at most
  ///    w_1 + w_j wires; TamEvaluator::rail_sum with InTest floors);
  ///  * under the cheap leftover rule, a candidate, when the replay of that
  ///    rule on exact rail sums (CheapMergeBound) puts its bound at or
  ///    above the best candidate so far. A candidate that survives takes
  ///    its leftover wires from the same replay.
  bool merge_tams(TamArchitecture& arch, std::size_t r1) {
    const std::int64_t current = t_soc(arch);
    std::int64_t best_t = current;
    std::size_t best_partner = arch.rails.size();
    int best_width = 0;
    std::int64_t pruned = 0;
    std::int64_t pruned_candidates = 0;
    const bool replay = config_.fast_candidate_scan;
    if (replay) bound_.bind(arch, r1);

    for (std::size_t rj = 0; rj < arch.rails.size(); ++rj) {
      if (rj == r1) continue;
      const int w1 = arch.rails[r1].width;
      const int wj = arch.rails[rj].width;
      const int width_min = std::max(w1, wj);
      const int width_max = w1 + wj;
      if (eval_.rail_sum(arch.rails[r1].cores, arch.rails[rj].cores,
                         width_max, TamEvaluator::InTestSum::kFloor)
              .time_used >= best_t) {
        ++pruned;
        continue;
      }
      if (replay) bound_.set_partner(rj);
      for (int w = width_min; w <= width_max; ++w) {
        if (replay && bound_.bound(w) >= best_t) {
          ++pruned_candidates;
          continue;
        }
        merge_into(arch, r1, rj, w, /*id=*/-2, cand_);
        if (replay) {
          bound_.distribute(cand_);
        } else if (w < width_max) {
          distribute_precise(cand_, width_max - w);
        }
        const std::int64_t t = t_soc(cand_);
        if (t < best_t) {
          best_t = t;
          best_partner = rj;
          best_width = w;
        }
      }
    }
    SITAM_COUNTER("tam.alg2.pruned", pruned);
    SITAM_COUNTER("tam.alg2.pruned_candidates", pruned_candidates);
    if (best_partner == arch.rails.size()) return false;

    // Rebuild the winner; with fast scanning also try the precise
    // distribution and keep whichever really is better.
    const int id = fresh_id();
    TamArchitecture winner;
    merge_into(arch, r1, best_partner, best_width, id, winner);
    const int leftover =
        arch.rails[r1].width + arch.rails[best_partner].width - best_width;
    if (leftover > 0) {
      if (config_.fast_candidate_scan) {
        TamArchitecture cheap = winner;
        bound_.set_partner(best_partner);
        static_cast<void>(bound_.bound(best_width));
        bound_.distribute(cheap);
        TamArchitecture precise = std::move(winner);
        distribute_precise(precise, leftover);
        winner = t_soc(precise) <= t_soc(cheap) ? std::move(precise)
                                                : std::move(cheap);
      } else {
        distribute_precise(winner, leftover);
      }
    }
    if (t_soc(winner) >= current) return false;
    arch = std::move(winner);
    return true;
  }

  // -------------------------------------------------------------------
  // Algorithm 2 stages
  // -------------------------------------------------------------------

  TamArchitecture start_solution(const std::vector<int>& core_order) {
    SITAM_TRACE_SPAN("tam.alg2.start");
    TamArchitecture arch;
    for (const int core : core_order) {
      TestRail rail;
      rail.cores = {core};
      rail.width = 1;
      rail.id = fresh_id();
      arch.rails.push_back(std::move(rail));
    }

    if (w_max_ < static_cast<int>(arch.rails.size())) {
      // Not enough wires: repeatedly merge the (W_max+1)-th rail (by
      // time_used, descending) into whichever of the first W_max rails
      // yields the lowest T_soc (Algorithm 2, lines 7-13). Each partner is
      // scored in place: it takes the victim's cores at its width of 1 and
      // the victim stays as an empty rail. T_soc depends neither on the
      // rail order nor on an empty rail (docs/algorithms.md §5), so this
      // is the merged architecture's T_soc, and consecutive partners
      // differ in two rails at fixed positions.
      while (static_cast<int>(arch.rails.size()) > w_max_) {
        check_cancel(config_.cancel);
        const auto order = order_by_time_used(arch);
        const std::size_t victim = order[static_cast<std::size_t>(w_max_)];
        std::size_t best_partner = arch.rails.size();
        std::int64_t best_t = std::numeric_limits<std::int64_t>::max();
        moved_.cores.clear();
        moved_.cores.swap(arch.rails[victim].cores);
        for (int j = 0; j < w_max_; ++j) {
          const std::size_t partner = order[static_cast<std::size_t>(j)];
          TestRail& rail = arch.rails[partner];
          kept_ = rail.cores;
          rail.merge_cores_from(moved_);
          const std::int64_t t = t_soc(arch);
          rail.cores.swap(kept_);
          if (t < best_t) {
            best_t = t;
            best_partner = partner;
          }
        }
        arch.rails[victim].cores.swap(moved_.cores);
        SITAM_CHECK(best_partner != arch.rails.size());
        merge_into(arch, victim, best_partner, 1, fresh_id(), cand_);
        std::swap(arch, cand_);
      }
    } else if (w_max_ > static_cast<int>(arch.rails.size())) {
      distribute_precise(arch,
                         w_max_ - static_cast<int>(arch.rails.size()));
    }
    return arch;
  }

  /// Lines 17-23: repeatedly merge the rail with the *lowest* time_used.
  void bottom_up(TamArchitecture& arch) {
    SITAM_TRACE_SPAN("tam.alg2.bottom_up");
    int guard = kMaxIterations;
    while (arch.rails.size() > 1 && guard-- > 0) {
      check_cancel(config_.cancel);
      const auto order = order_by_time_used(arch);
      if (!merge_tams(arch, order.back())) break;
    }
  }

  /// Lines 24-30: repeatedly merge the rail with the *highest* time_used.
  /// Returns the id of the rail whose merge attempt finally failed (the
  /// initial R_skip member), or -1 if the loop never failed.
  int top_down(TamArchitecture& arch) {
    SITAM_TRACE_SPAN("tam.alg2.top_down");
    int guard = kMaxIterations;
    while (arch.rails.size() > 1 && guard-- > 0) {
      check_cancel(config_.cancel);
      const auto order = order_by_time_used(arch);
      const std::size_t r1 = order.front();
      const int r1_id = arch.rails[r1].id;
      if (!merge_tams(arch, r1)) return r1_id;
    }
    return -1;
  }

  /// Lines 31-36: keep trying the heaviest not-yet-skipped rail; failed
  /// attempts enter R_skip, successes reset nothing (merged rails carry
  /// fresh ids and so are eligible again).
  void sweep(TamArchitecture& arch, int initial_skip_id) {
    SITAM_TRACE_SPAN("tam.alg2.sweep");
    std::set<int> skip;
    if (initial_skip_id >= 0) skip.insert(initial_skip_id);
    int guard = kMaxIterations;
    while (guard-- > 0) {
      check_cancel(config_.cancel);
      std::size_t pick = arch.rails.size();
      std::int64_t pick_used = -1;
      const std::vector<RailTimes>& rails = rail_times(arch);
      for (std::size_t r = 0; r < arch.rails.size(); ++r) {
        if (skip.count(arch.rails[r].id) != 0) continue;
        if (rails[r].time_used > pick_used) {
          pick_used = rails[r].time_used;
          pick = r;
        }
      }
      if (pick == arch.rails.size()) break;  // R_skip == R_soc
      const int pick_id = arch.rails[pick].id;
      if (!merge_tams(arch, pick)) skip.insert(pick_id);
    }
  }

  /// Rails whose extra wire would strictly reduce T_soc. A rail whose probe
  /// bound (WireProbeBound) is already >= T_soc is not probed.
  [[nodiscard]] std::vector<std::size_t> bottleneck_rails(
      TamArchitecture& arch) {
    const std::int64_t current = t_soc(arch);
    probe_.bind(arch, rail_times(arch));
    std::vector<std::size_t> result;
    std::int64_t pruned = 0;
    for (std::size_t r = 0; r < arch.rails.size(); ++r) {
      if (probe_.bound(r) >= current) {
        ++pruned;
        continue;
      }
      ++arch.rails[r].width;
      if (t_soc(arch) < current) result.push_back(r);
      --arch.rails[r].width;
    }
    SITAM_COUNTER("tam.alg2.pruned_probes", pruned);
    return result;
  }

  /// Line 37: move single cores off bottleneck rails while it helps.
  void core_reshuffle(TamArchitecture& arch) {
    SITAM_TRACE_SPAN("tam.alg2.reshuffle");
    int guard = kMaxIterations;
    while (guard-- > 0) {
      check_cancel(config_.cancel);
      const std::int64_t current = t_soc(arch);
      const auto bottlenecks = bottleneck_rails(arch);
      std::int64_t best_t = current;
      std::size_t best_from = 0;
      std::size_t best_to = 0;
      int best_core = -1;

      for (const std::size_t from : bottlenecks) {
        TestRail& source = arch.rails[from];
        if (source.cores.size() < 2) continue;  // rail must stay
        // Probe each move in place and undo it (which restores the rails
        // exactly), indexing the cores rather than iterating them.
        for (std::size_t i = 0; i < source.cores.size(); ++i) {
          const int core = source.cores[i];
          source.erase_core(core);
          for (std::size_t to = 0; to < arch.rails.size(); ++to) {
            if (to == from) continue;
            arch.rails[to].insert_core(core);
            const std::int64_t t = t_soc(arch);
            arch.rails[to].erase_core(core);
            if (t < best_t) {
              best_t = t;
              best_from = from;
              best_to = to;
              best_core = core;
            }
          }
          source.insert_core(core);
        }
      }
      if (best_core < 0) break;
      arch.rails[best_from].erase_core(best_core);
      arch.rails[best_to].insert_core(best_core);
    }
  }

  const Soc& soc_;
  int w_max_;
  OptimizerConfig config_;
  TamEvaluator eval_;
  // Incremental front-end over eval_ (which runs its full evaluations).
  // Mutable for the same reason eval_'s internals are: scoring a candidate
  // does not change the observable optimizer state.
  mutable DeltaEvaluator delta_;
  // Holds the last full evaluation behind rail_times() on the non-delta
  // path (assignment recycles its vector capacity).
  mutable Evaluation eval_scratch_;
  // mergeTAMs' cheap leftover rule and its candidate bound.
  CheapMergeBound bound_;
  // The +1-wire probes' bound and distribute_precise's visiting order.
  WireProbeBound probe_;
  std::vector<std::size_t> probe_order_;
  // Candidate storage reused by every merge_into of the scans.
  TamArchitecture cand_;
  // The start solution's in-place scan: the victim's cores, and the
  // partner's own while it holds the victim's too.
  TestRail moved_;
  std::vector<int> kept_;
  int next_id_ = 0;
};

}  // namespace

namespace {

/// One Algorithm 2 pass for restart `index`: index 0 is the paper's
/// deterministic core order, later indices shuffle it with their own RNG
/// stream. Self-contained so restarts can run on any thread.
OptimizeResult run_restart(const Soc& soc, const TestTimeTable& table,
                           const SiTestSet& tests, int w_max,
                           const OptimizerConfig& config, int index) {
  // Restart-granular cancellation point: a request cancelled while earlier
  // restarts were in flight stops the remaining ones before they build
  // their evaluator stacks.
  check_cancel(config.cancel);
  SITAM_TRACE_SPAN_ARG("tam.optimizer.restart", index);
  SITAM_COUNTER("tam.optimizer.restarts", 1);
  std::vector<int> order(static_cast<std::size_t>(soc.core_count()));
  std::iota(order.begin(), order.end(), 0);
  if (index > 0) {
    Rng rng(split_stream(kRestartSeed, static_cast<std::uint64_t>(index)));
    rng.shuffle(order);
  }
  Optimizer attempt(soc, table, tests, w_max, config);
  return attempt.run(order);
}

// CheapMergeBound's table entries not summed yet.
constexpr RailTimes kUnsummed{-1, -1, -1};

}  // namespace

void CheapMergeBound::bind(const TamArchitecture& arch, std::size_t r1) {
  SITAM_DCHECK(r1 < arch.rails.size());
  arch_ = &arch;
  r1_ = r1;
  // A candidate hands out at most min(w1, wj) <= w1 leftover wires, so no
  // rail gets more than w1 extra.
  stride_ = arch.rails[r1].width + 1;
  other_times_.assign(arch.rails.size() * static_cast<std::size_t>(stride_),
                      kUnsummed);
}

const RailTimes& CheapMergeBound::other_at(std::size_t k, int extra) {
  SITAM_DCHECK(extra < stride_);
  RailTimes& entry =
      other_times_[k * static_cast<std::size_t>(stride_) +
                   static_cast<std::size_t>(extra)];
  if (entry.time_used < 0) {
    const TestRail& rail = arch_->rails[k];
    entry = eval_->rail_sum(rail.cores, {}, rail.width + extra,
                            TamEvaluator::InTestSum::kExact);
  }
  return entry;
}

const RailTimes& CheapMergeBound::merged_at(int width) {
  SITAM_DCHECK(width >= width_min_ &&
               width - width_min_ < static_cast<int>(merged_times_.size()));
  RailTimes& entry =
      merged_times_[static_cast<std::size_t>(width - width_min_)];
  if (entry.time_used < 0) {
    entry = eval_->rail_sum(arch_->rails[r1_].cores, arch_->rails[rj_].cores,
                            width, TamEvaluator::InTestSum::kExact);
  }
  return entry;
}

void CheapMergeBound::set_partner(std::size_t rj) {
  SITAM_DCHECK(rj != r1_);
  rj_ = rj;
  const int w1 = arch_->rails[r1_].width;
  const int wj = arch_->rails[rj].width;
  width_min_ = std::max(w1, wj);
  merged_times_.assign(static_cast<std::size_t>(std::min(w1, wj) + 1),
                       kUnsummed);
  extra_.assign(arch_->rails.size(), 0);
  pick_rail_.clear();
  max_in_.clear();
  max_si_.clear();
  max_used_.clear();
  extend_picks(0);
}

void CheapMergeBound::extend_picks(int picks) {
  SITAM_DCHECK(picks < stride_);
  while (static_cast<int>(max_used_.size()) <= picks) {
    if (!max_used_.empty()) {
      pick_rail_.push_back(next_pick_);
      ++extra_[next_pick_];
    }
    // The maxima over the others and the rule's next wire among them: the
    // first rail (index order) of largest time_used.
    RailTimes max;
    next_pick_ = arch_->rails.size();
    for (std::size_t k = 0; k < arch_->rails.size(); ++k) {
      if (k == r1_ || k == rj_) continue;
      const RailTimes& times = other_at(k, extra_[k]);
      max.time_in = std::max(max.time_in, times.time_in);
      max.time_si = std::max(max.time_si, times.time_si);
      if (next_pick_ == arch_->rails.size() ||
          times.time_used > max.time_used) {
        max.time_used = times.time_used;
        next_pick_ = k;
      }
    }
    max_in_.push_back(max.time_in);
    max_si_.push_back(max.time_si);
    max_used_.push_back(max.time_used);
  }
}

std::int64_t CheapMergeBound::bound(int width) {
  const bool others = arch_->rails.size() > 2;
  const int leftover =
      arch_->rails[r1_].width + arch_->rails[rj_].width - width;
  SITAM_DCHECK(width >= width_min_ && leftover >= 0);
  int picks = 0;
  int merged_extra = 0;
  for (int s = 0; s < leftover; ++s) {
    // The merged rail comes last, so it takes the wire only when it is
    // strictly the largest.
    if (others && max_used_[static_cast<std::size_t>(picks)] >=
                      merged_at(width + merged_extra).time_used) {
      extend_picks(++picks);
    } else {
      ++merged_extra;
    }
  }
  picks_ = picks;
  merged_extra_ = merged_extra;
  const RailTimes& merged = merged_at(width + merged_extra);
  const auto i = static_cast<std::size_t>(picks);
  // Algorithm 1 runs no two tests on one rail at once and a test lasts at
  // least its busy time on each of its rails (docs/algorithms.md §5).
  if (eval_->options().interleave_phases) {
    return std::max(max_used_[i], merged.time_used);
  }
  return std::max(max_in_[i], merged.time_in) +
         std::max(max_si_[i], merged.time_si);
}

void CheapMergeBound::distribute(TamArchitecture& cand) const {
  SITAM_DCHECK(cand.rails.size() + 1 == arch_->rails.size());
  for (int s = 0; s < picks_; ++s) {
    // Rail k's index in the candidate, which drops r1 and rj.
    const std::size_t k = pick_rail_[static_cast<std::size_t>(s)];
    ++cand.rails[k - (k > r1_ ? 1 : 0) - (k > rj_ ? 1 : 0)].width;
  }
  cand.rails.back().width += merged_extra_;
}

void WireProbeBound::Max::add(std::int64_t value, std::size_t r) {
  // The rails bound() leaves out count as 0, so no time may be below it.
  SITAM_DCHECK(value >= 0);
  if (value > first) {
    second = first;
    first = value;
    rail = r;
  } else {
    second = std::max(second, value);
  }
}

void WireProbeBound::refresh_maxima() {
  SITAM_DCHECK(current_.size() == widened_.size());
  in_ = si_ = used_ = Max{};
  for (std::size_t r = 0; r < current_.size(); ++r) {
    in_.add(current_[r].time_in, r);
    si_.add(current_[r].time_si, r);
    used_.add(current_[r].time_used, r);
  }
}

void WireProbeBound::bind(const TamArchitecture& arch,
                          std::span<const RailTimes> rails) {
  SITAM_DCHECK(rails.size() == arch.rails.size());
  arch_ = &arch;
  current_.assign(rails.begin(), rails.end());
  widened_.resize(arch.rails.size());
  for (std::size_t r = 0; r < arch.rails.size(); ++r) {
    const TestRail& rail = arch.rails[r];
    widened_[r] = eval_->rail_sum(rail.cores, {}, rail.width + 1,
                                  TamEvaluator::InTestSum::kExact);
  }
  refresh_maxima();
}

void WireProbeBound::widen(std::size_t r) {
  SITAM_DCHECK(r < current_.size());
  const TestRail& rail = arch_->rails[r];
  current_[r] = widened_[r];
  widened_[r] = eval_->rail_sum(rail.cores, {}, rail.width + 1,
                                TamEvaluator::InTestSum::kExact);
  refresh_maxima();
}

std::int64_t WireProbeBound::bound(std::size_t r) const {
  const RailTimes& wide = widened_[r];
  // As CheapMergeBound::bound: no two tests share a rail at once, and a
  // test lasts at least its busy time on each of its rails.
  if (eval_->options().interleave_phases) {
    return std::max(used_.without(r), wide.time_used);
  }
  return std::max(in_.without(r), wide.time_in) +
         std::max(si_.without(r), wide.time_si);
}

/// The running reduction of one job's restarts: the winner so far (lowest
/// t_soc, ties to the lowest restart index) and the stats summed over the
/// restarts folded in. Both are independent of the folding order.
class JobWinner {
 public:
  void fold(OptimizeResult result, int restart) {
    const std::lock_guard<std::mutex> lock(mutex_);
    total_ += result.stats;
    if (!best_ || result.evaluation.t_soc < best_->evaluation.t_soc ||
        (result.evaluation.t_soc == best_->evaluation.t_soc &&
         restart < best_restart_)) {
      best_ = std::move(result);
      best_restart_ = restart;
    }
  }

  /// The winner with the summed stats; call once, after every fold.
  [[nodiscard]] OptimizeResult take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    SITAM_CHECK(best_.has_value());
    OptimizeResult winner = std::move(*best_);
    winner.stats = total_;
    return winner;
  }

 private:
  std::mutex mutex_;
  std::optional<OptimizeResult> best_;  // guarded_by(mutex_)
  int best_restart_ = 0;                // guarded_by(mutex_)
  EvaluatorStats total_;                // guarded_by(mutex_)
};

OptimizeResult optimize_tam(const Soc& soc, const TestTimeTable& table,
                            const SiTestSet& tests, int w_max,
                            const OptimizerConfig& config) {
  OptimizeBatch batch(soc, {{&table, &tests, w_max}}, config);
  Executor executor(ThreadPool::workers_for(
      config.threads, static_cast<std::size_t>(std::max(1, config.restarts))));
  {
    TaskGroup group(executor);
    batch.start(0, group);
    group.wait();
  }
  return batch.take(0);
}

OptimizeBatch::OptimizeBatch(const Soc& soc, std::vector<OptimizeJob> jobs,
                             const OptimizerConfig& config)
    : soc_(soc), jobs_(std::move(jobs)), config_(config) {
  if (soc.core_count() == 0) {
    throw std::invalid_argument("optimize_tam: SOC has no cores");
  }
  for (const OptimizeJob& job : jobs_) {
    if (job.w_max < 1) {
      throw std::invalid_argument("optimize_tam: w_max must be >= 1");
    }
    if (job.table == nullptr || job.tests == nullptr) {
      throw std::invalid_argument("optimize_tam: job without table or tests");
    }
  }
  winners_.reserve(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    winners_.push_back(std::make_unique<JobWinner>());
  }
}

OptimizeBatch::~OptimizeBatch() = default;

void OptimizeBatch::start(std::size_t j, TaskGroup& group,
                          JobPriority priority) {
  SITAM_CHECK_MSG(j < jobs_.size(), "batch job " << j << " out of range");
  for (int restart = 0; restart < std::max(1, config_.restarts); ++restart) {
    group.run(priority, [this, j, restart] {
      const OptimizeJob& job = jobs_[j];
      const obs::ScopedSpan span(job.span, job.span_arg);
      winners_[j]->fold(run_restart(soc_, *job.table, *job.tests, job.w_max,
                                    config_, restart),
                        restart);
    });
  }
}

OptimizeResult OptimizeBatch::take(std::size_t j) {
  return winners_[j]->take();
}

OptimizeResult optimize_intest_only(const Soc& soc, const TestTimeTable& table,
                                    const SiTestSet& tests, int w_max,
                                    const OptimizerConfig& config) {
  static const SiTestSet kNoTests{};
  OptimizeResult result = optimize_tam(soc, table, kNoTests, w_max, config);
  // Score the SI-obliviously optimized architecture against the real SI
  // tests: this is the paper's T_[8] column.
  const TamEvaluator with_tests(soc, table, tests, config.evaluator);
  result.evaluation = with_tests.evaluate(result.architecture);
  return result;
}

}  // namespace sitam
