#include "tam/optimizer.h"

#include <algorithm>
#include <exception>
#include <future>
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
        delta_(eval_) {}

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
    // direct ones above and in order_by_time_used/distribute_cheap/sweep,
    // which a counter in t_soc() alone would miss.
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
  // Wire distribution (distributeFreeWires)
  // -------------------------------------------------------------------

  /// Cheap rule: each wire goes to the rail with the largest time_used.
  void distribute_cheap(TamArchitecture& arch, int wires) const {
    for (int i = 0; i < wires; ++i) {
      const std::vector<RailTimes>& rails = rail_times(arch);
      std::size_t pick = 0;
      for (std::size_t r = 1; r < arch.rails.size(); ++r) {
        if (rails[r].time_used > rails[pick].time_used) pick = r;
      }
      ++arch.rails[pick].width;
    }
  }

  /// Precise rule (the paper's): each wire goes to the rail whose extra
  /// wire minimizes T_soc — which is by definition a bottleneck rail.
  void distribute_precise(TamArchitecture& arch, int wires) const {
    for (int i = 0; i < wires; ++i) {
      std::size_t best_rail = 0;
      std::int64_t best_t = std::numeric_limits<std::int64_t>::max();
      for (std::size_t r = 0; r < arch.rails.size(); ++r) {
        ++arch.rails[r].width;
        const std::int64_t t = t_soc(arch);
        --arch.rails[r].width;
        if (t < best_t) {
          best_t = t;
          best_rail = r;
        }
      }
      ++arch.rails[best_rail].width;
    }
  }

  // -------------------------------------------------------------------
  // mergeTAMs
  // -------------------------------------------------------------------

  /// Builds arch minus rails a and b plus their merger at `width`.
  [[nodiscard]] TamArchitecture merged(const TamArchitecture& arch,
                                       std::size_t a, std::size_t b,
                                       int width, int id) const {
    TamArchitecture out;
    out.rails.reserve(arch.rails.size() - 1);
    for (std::size_t r = 0; r < arch.rails.size(); ++r) {
      if (r != a && r != b) out.rails.push_back(arch.rails[r]);
    }
    // Copy + merge_cores_from keeps the incremental hash cache warm: the
    // merged rail's sums are the two parents' sums added in O(1).
    TestRail merged_rail = arch.rails[a];
    merged_rail.merge_cores_from(arch.rails[b]);
    merged_rail.width = width;
    merged_rail.id = id;
    out.rails.push_back(std::move(merged_rail));
    return out;
  }

  /// The paper's mergeTAMs: tries to merge rail `r1` with every other rail
  /// at every width in [max(w_i, w_1), w_i + w_1], distributing freed wires
  /// to bottleneck rails. Applies the best strictly-improving merge and
  /// returns true, else leaves arch untouched and returns false.
  bool merge_tams(TamArchitecture& arch, std::size_t r1) {
    const std::int64_t current = t_soc(arch);
    std::int64_t best_t = current;
    std::size_t best_partner = arch.rails.size();
    int best_width = 0;

    for (std::size_t rj = 0; rj < arch.rails.size(); ++rj) {
      if (rj == r1) continue;
      const int w1 = arch.rails[r1].width;
      const int wj = arch.rails[rj].width;
      const int width_min = std::max(w1, wj);
      const int width_max = w1 + wj;
      for (int w = width_min; w <= width_max; ++w) {
        TamArchitecture cand = merged(arch, r1, rj, w, /*id=*/-2);
        const int leftover = width_max - w;
        if (leftover > 0) {
          if (config_.fast_candidate_scan) {
            distribute_cheap(cand, leftover);
          } else {
            distribute_precise(cand, leftover);
          }
        }
        const std::int64_t t = t_soc(cand);
        if (t < best_t) {
          best_t = t;
          best_partner = rj;
          best_width = w;
        }
      }
    }
    if (best_partner == arch.rails.size()) return false;

    // Rebuild the winner; with fast scanning also try the precise
    // distribution and keep whichever really is better.
    const int id = fresh_id();
    TamArchitecture winner =
        merged(arch, r1, best_partner, best_width, id);
    const int leftover =
        arch.rails[r1].width + arch.rails[best_partner].width - best_width;
    if (leftover > 0) {
      if (config_.fast_candidate_scan) {
        TamArchitecture cheap = winner;
        distribute_cheap(cheap, leftover);
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
      // yields the lowest T_soc (Algorithm 2, lines 7-13).
      while (static_cast<int>(arch.rails.size()) > w_max_) {
        check_cancel(config_.cancel);
        const auto order = order_by_time_used(arch);
        const std::size_t victim = order[static_cast<std::size_t>(w_max_)];
        std::size_t best_partner = arch.rails.size();
        std::int64_t best_t = std::numeric_limits<std::int64_t>::max();
        for (int j = 0; j < w_max_; ++j) {
          const std::size_t partner = order[static_cast<std::size_t>(j)];
          const TamArchitecture cand =
              merged(arch, victim, partner, /*width=*/1, /*id=*/-2);
          const std::int64_t t = t_soc(cand);
          if (t < best_t) {
            best_t = t;
            best_partner = partner;
          }
        }
        SITAM_CHECK(best_partner != arch.rails.size());
        arch = merged(arch, victim, best_partner, 1, fresh_id());
      }
    } else if (w_max_ > static_cast<int>(arch.rails.size())) {
      distribute_precise(arch,
                         w_max_ - static_cast<int>(arch.rails.size()));
    }
    return arch;
  }

  /// Lines 17-23: repeatedly merge the rail with the *lowest* time_used.
  void bottom_up(TamArchitecture& arch) {
    int guard = config_.max_iterations;
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
    int guard = config_.max_iterations;
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
    std::set<int> skip;
    if (initial_skip_id >= 0) skip.insert(initial_skip_id);
    int guard = config_.max_iterations;
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

  /// Rails whose extra wire would strictly reduce T_soc.
  [[nodiscard]] std::vector<std::size_t> bottleneck_rails(
      TamArchitecture& arch) const {
    const std::int64_t current = t_soc(arch);
    std::vector<std::size_t> result;
    for (std::size_t r = 0; r < arch.rails.size(); ++r) {
      ++arch.rails[r].width;
      if (t_soc(arch) < current) result.push_back(r);
      --arch.rails[r].width;
    }
    return result;
  }

  /// Line 37: move single cores off bottleneck rails while it helps.
  void core_reshuffle(TamArchitecture& arch) {
    int guard = config_.max_iterations;
    while (guard-- > 0) {
      check_cancel(config_.cancel);
      const std::int64_t current = t_soc(arch);
      const auto bottlenecks = bottleneck_rails(arch);
      std::int64_t best_t = current;
      std::size_t best_from = 0;
      std::size_t best_to = 0;
      int best_core = -1;

      for (const std::size_t from : bottlenecks) {
        if (arch.rails[from].cores.size() < 2) continue;  // rail must stay
        for (const int core : arch.rails[from].cores) {
          for (std::size_t to = 0; to < arch.rails.size(); ++to) {
            if (to == from) continue;
            TamArchitecture cand = arch;
            cand.rails[from].erase_core(core);
            cand.rails[to].insert_core(core);
            const std::int64_t t = t_soc(cand);
            if (t < best_t) {
              best_t = t;
              best_from = from;
              best_to = to;
              best_core = core;
            }
          }
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
    Rng rng(split_stream(config.restart_seed,
                         static_cast<std::uint64_t>(index)));
    rng.shuffle(order);
  }
  Optimizer attempt(soc, table, tests, w_max, config);
  return attempt.run(order);
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

}  // namespace

OptimizeResult optimize_tam(const Soc& soc, const TestTimeTable& table,
                            const SiTestSet& tests, int w_max,
                            const OptimizerConfig& config) {
  const OptimizeJob job{&table, &tests, w_max};
  Executor executor(ThreadPool::workers_for(
      config.threads, static_cast<std::size_t>(std::max(1, config.restarts))));
  return std::move(optimize_tam_batch(soc, std::span(&job, 1), config,
                                      executor)
                       .front());
}

std::vector<OptimizeResult> optimize_tam_batch(
    const Soc& soc, std::span<const OptimizeJob> jobs,
    const OptimizerConfig& config, Executor& executor) {
  if (soc.core_count() == 0) {
    throw std::invalid_argument("optimize_tam: SOC has no cores");
  }
  for (const OptimizeJob& job : jobs) {
    if (job.w_max < 1) {
      throw std::invalid_argument("optimize_tam: w_max must be >= 1");
    }
    if (job.table == nullptr || job.tests == nullptr) {
      throw std::invalid_argument("optimize_tam: job without table or tests");
    }
  }
  const int restarts = std::max(1, config.restarts);

  // Units in job-major order, started in submission order; each folds its
  // result into its job's winner, so the finishing order changes nothing.
  std::vector<JobWinner> winners(jobs.size());
  std::vector<std::future<void>> units;
  units.reserve(jobs.size() * static_cast<std::size_t>(restarts));
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (int restart = 0; restart < restarts; ++restart) {
      units.push_back(executor.submit([&, j, restart] {
        const OptimizeJob& job = jobs[j];
        const obs::ScopedSpan span(job.span, job.span_arg);
        winners[j].fold(run_restart(soc, *job.table, *job.tests, job.w_max,
                                    config, restart),
                        restart);
      }));
    }
  }
  // Collect every unit before rethrowing: a cancelled (or otherwise
  // throwing) unit must not leave siblings running against state the
  // caller is about to unwind.
  std::exception_ptr first_error;
  for (std::future<void>& unit : units) {
    try {
      unit.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  std::vector<OptimizeResult> results;
  results.reserve(jobs.size());
  for (JobWinner& winner : winners) results.push_back(winner.take());
  return results;
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
