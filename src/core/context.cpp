#include "core/context.h"

#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "tam/bounds.h"
#include "util/check.h"
#include "util/rng.h"

namespace sitam {

std::shared_ptr<const Soc> SitamContext::intern(Soc soc) {
  const auto interned = arena_.get_or_compute(
      soc_structure_hash(soc), [&soc] { return std::move(soc); });
  if (!interned.hit) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.socs_interned;
    SITAM_COUNTER("core.context.socs_interned", 1);
  }
  return interned.value;
}

std::uint64_t SitamContext::request_key(const FlowRequest& request) {
  SITAM_CHECK_MSG(request.soc != nullptr, "FlowRequest without a SOC");
  std::uint64_t h = workload_config_hash(*request.soc, request.workload);
  const auto mix = [&h](std::uint64_t value) { hash_mix(h, value); };
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
  // The iteration guard and the restart seed are constants, mixed in
  // their old slots so pinned keys stay put.
  mix(static_cast<std::uint64_t>(kMaxIterations));
  mix(static_cast<std::uint64_t>(opt.restarts));
  mix(kRestartSeed);
  mix(static_cast<std::uint64_t>(opt.evaluator.pick));
  mix(static_cast<std::uint64_t>(opt.evaluator.style));
  // A constant in the removed memo switch's slot keeps the keys of default
  // requests unchanged.
  mix(1);
  mix(static_cast<std::uint64_t>(opt.evaluator.power_budget));
  // A constant in the removed exclusive-bus switch's slot, likewise.
  mix(0);
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

  // A Cancelled unwind from anywhere — including a token that was set
  // before the request arrived — stores nothing (the cancelled counter is
  // the only trace).
  try {
    check_cancel(request.cancel);
    const auto [result, hit] = results_.get_or_compute(
        key, [&] { return compute(request); }, request.cancel);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++(hit ? stats_.result_hits : stats_.result_misses);
    }
    if (hit) {
      SITAM_COUNTER("core.context.result_hits", 1);
    } else {
      SITAM_COUNTER("core.context.result_misses", 1);
    }
    return *result;
  } catch (const Cancelled&) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cancelled;
    SITAM_COUNTER("core.context.cancelled", 1);
    throw;
  }
}

FlowResult SitamContext::compute(const FlowRequest& request) {
  const Soc& soc = *request.soc;

  // Workload tier: shared in memory, else prepared.
  const auto [workload, hit] = workloads_.get_or_compute(
      workload_config_hash(soc, request.workload),
      [&] {
        return SiWorkload::prepare(soc, request.workload, request.cancel);
      },
      request.cancel);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++(hit ? stats_.workload_hits : stats_.workload_misses);
  }
  check_cancel(request.cancel);

  // The request's token drives every loop below; a token already set on
  // the optimizer config is honored when the request carries none.
  OptimizerConfig optimizer = request.optimizer;
  if (request.cancel != nullptr) optimizer.cancel = request.cancel;

  FlowResult result;
  result.mode = request.mode;
  if (request.mode == FlowMode::kSweep) {
    result.sweep = run_sweep(*workload, request.widths, optimizer);
    return result;
  }

  const int w_max = request.widths.front();
  const int parts = request.workload.groupings.front();
  const SiTestSet& tests = workload->tests(parts);
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
  arena_.clear();
  workloads_.clear();
  results_.clear();
}

}  // namespace sitam
