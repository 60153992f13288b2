#include "core/context.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "tam/bounds.h"
#include "util/check.h"
#include "util/rng.h"

namespace sitam {

SitamContext::SitamContext() : SitamContext(Options{}) {}

SitamContext::SitamContext(Options options)
    : options_{std::max<std::size_t>(1, options.workload_capacity),
               std::max<std::size_t>(1, options.result_capacity),
               std::move(options.cache_directory)},
      workloads_(options_.workload_capacity) {}

std::shared_ptr<const Soc> SitamContext::intern(Soc soc) {
  const std::uint64_t key = soc_structure_hash(soc);
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = arena_.find(key);
  if (it != arena_.end()) {
    it->second.last_used = ++tick_;
    return it->second.soc;
  }
  auto shared = std::make_shared<const Soc>(std::move(soc));
  arena_.insert_or_assign(key, ArenaEntry{shared, ++tick_});
  ++stats_.socs_interned;
  SITAM_COUNTER("core.context.socs_interned", 1);
  trim_arena_locked();
  return shared;
}

std::uint64_t SitamContext::request_key(const FlowRequest& request) {
  SITAM_CHECK_MSG(request.soc != nullptr, "FlowRequest without a SOC");
  std::uint64_t h = workload_config_hash(*request.soc, request.workload);
  const auto mix = [&h](std::uint64_t value) {
    h ^= value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    h = split_mix64(h);
  };
  mix(request.mode == FlowMode::kOptimize ? 1 : 2);
  mix(request.widths.size());
  for (const int w : request.widths) mix(static_cast<std::uint64_t>(w));
  // Every optimizer knob that changes the result *or its stats*. threads
  // and cancel are deliberately absent: the optimizer is documented
  // bit-identical for any thread count, and cancellation is control flow.
  const OptimizerConfig& opt = request.optimizer;
  mix(opt.delta_eval ? 1 : 0);
  mix(opt.core_reshuffle ? 1 : 0);
  mix(opt.fast_candidate_scan ? 1 : 0);
  mix(static_cast<std::uint64_t>(opt.max_iterations));
  mix(static_cast<std::uint64_t>(opt.restarts));
  mix(opt.restart_seed);
  mix(static_cast<std::uint64_t>(opt.evaluator.pick));
  mix(static_cast<std::uint64_t>(opt.evaluator.style));
  mix(opt.evaluator.memoize ? 1 : 0);
  mix(static_cast<std::uint64_t>(opt.evaluator.power_budget));
  mix(opt.evaluator.exclusive_bus ? 1 : 0);
  mix(opt.evaluator.interleave_phases ? 1 : 0);
  return h;
}

FlowResult SitamContext::run(const FlowRequest& request) {
  if (request.soc == nullptr) {
    throw std::invalid_argument("SitamContext::run: request.soc is null");
  }
  if (request.widths.empty()) {
    throw std::invalid_argument("SitamContext::run: widths must not be empty");
  }
  if (request.workload.groupings.empty()) {
    throw std::invalid_argument(
        "SitamContext::run: workload.groupings must not be empty");
  }
  const std::uint64_t key = request_key(request);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
  }

  // Heavy work runs outside the lock; a Cancelled unwind from anywhere —
  // including a token that was set before the request arrived — leaves
  // the memo untouched (the cancelled counter is the only trace).
  FlowResult result;
  try {
    check_cancel(request.cancel);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = results_.find(key);
      if (it != results_.end()) {
        it->second.last_used = ++tick_;
        ++stats_.result_hits;
        SITAM_COUNTER("core.context.result_hits", 1);
        return it->second.result;
      }
      ++stats_.result_misses;
      SITAM_COUNTER("core.context.result_misses", 1);
    }
    result = compute(request);
  } catch (const Cancelled&) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cancelled;
    SITAM_COUNTER("core.context.cancelled", 1);
    throw;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    results_.insert_or_assign(key, ResultEntry{result, ++tick_});
    trim_results_locked();
  }
  return result;
}

FlowResult SitamContext::compute(const FlowRequest& request) {
  const Soc& soc = *request.soc;

  // Workload tier: memory cache, then (if configured) disk, then prepare.
  // Hit accounting lives here rather than in WorkloadMemoryCache so the
  // counters line up with this context's requests.
  const std::string wkey = workload_cache_key(soc, request.workload);
  std::optional<SiWorkload> cached = workloads_.lookup(wkey);
  const bool workload_hit = cached.has_value();
  if (!workload_hit) {
    SiWorkload prepared =
        options_.cache_directory.empty()
            ? SiWorkload::prepare(soc, request.workload, request.cancel)
            : prepare_cached(soc, request.workload, options_.cache_directory,
                             request.cancel);
    workloads_.insert(wkey, prepared);
    cached.emplace(std::move(prepared));
  }
  const SiWorkload& workload = *cached;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (workload_hit) {
      ++stats_.workload_hits;
    } else {
      ++stats_.workload_misses;
    }
  }
  check_cancel(request.cancel);

  // The request's token drives every loop below; a token already set on
  // the optimizer config is honored when the request carries none.
  OptimizerConfig optimizer = request.optimizer;
  if (request.cancel != nullptr) optimizer.cancel = request.cancel;

  FlowResult result;
  result.mode = request.mode;
  if (request.mode == FlowMode::kSweep) {
    result.sweep = run_sweep(workload, request.widths, optimizer);
    return result;
  }

  const int w_max = request.widths.front();
  const int parts = request.workload.groupings.front();
  const SiTestSet& tests = workload.tests(parts);
  const TestTimeTable table(soc, w_max);
  result.optimize = optimize_tam(soc, table, tests, w_max, optimizer);
  result.tests = tests;
  result.lower_bound = lower_bounds(soc, table, tests, w_max).t_soc();
  result.area = soc_wrapper_area(soc, result.optimize.architecture);
  return result;
}

ContextStats SitamContext::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void SitamContext::clear() {
  workloads_.clear();
  const std::lock_guard<std::mutex> lock(mutex_);
  results_.clear();
  arena_.clear();
}

void SitamContext::trim_results_locked() {
  while (results_.size() > options_.result_capacity) {
    auto victim = results_.begin();
    for (auto it = results_.begin(); it != results_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    SITAM_COUNTER("core.context.result_evictions", 1);
    results_.erase(victim);
  }
}

void SitamContext::trim_arena_locked() {
  while (arena_.size() > options_.result_capacity) {
    auto victim = arena_.begin();
    for (auto it = arena_.begin(); it != arena_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    arena_.erase(victim);
  }
}

}  // namespace sitam
