#include "tam/annealing.h"

#include <algorithm>
#include <cmath>
#include <exception>
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

/// Round-robin start: min(w_max, cores) rails, cores dealt in order, wires
/// spread as evenly as possible.
TamArchitecture round_robin_start(int cores, int w_max) {
  const int rails = std::min(cores, w_max);
  TamArchitecture arch;
  arch.rails.resize(static_cast<std::size_t>(rails));
  for (int c = 0; c < cores; ++c) {
    arch.rails[static_cast<std::size_t>(c % rails)].cores.push_back(c);
  }
  for (int r = 0; r < rails; ++r) {
    arch.rails[static_cast<std::size_t>(r)].width =
        w_max / rails + (r < w_max % rails ? 1 : 0);
  }
  return arch;
}

/// Applies one random mutation; returns false if the drawn move was not
/// applicable to the current architecture (caller just retries). All core
/// movement goes through the TestRail helpers so the incremental hash
/// caches stay warm across the chain.
bool mutate(TamArchitecture& arch, Rng& rng) {
  const auto rail_count = arch.rails.size();
  SITAM_DCHECK_MSG(rail_count > 0, "mutate on an empty architecture");
  switch (rng.below(4)) {
    case 0: {  // move one core to another rail
      if (rail_count < 2) return false;
      const auto from = static_cast<std::size_t>(rng.below(rail_count));
      if (arch.rails[from].cores.size() < 2) return false;
      auto to = static_cast<std::size_t>(rng.below(rail_count - 1));
      if (to >= from) ++to;
      const auto pick = static_cast<std::size_t>(
          rng.below(arch.rails[from].cores.size()));
      const int core = arch.rails[from].cores[pick];
      arch.rails[from].erase_core(core);
      arch.rails[to].insert_core(core);
      return true;
    }
    case 1: {  // move one wire to another rail
      if (rail_count < 2) return false;
      const auto from = static_cast<std::size_t>(rng.below(rail_count));
      if (arch.rails[from].width < 2) return false;
      auto to = static_cast<std::size_t>(rng.below(rail_count - 1));
      if (to >= from) ++to;
      --arch.rails[from].width;
      ++arch.rails[to].width;
      return true;
    }
    case 2: {  // split a rail
      const auto target = static_cast<std::size_t>(rng.below(rail_count));
      TestRail& rail = arch.rails[target];
      if (rail.width < 2 || rail.cores.size() < 2) return false;
      TestRail fresh;
      const int moved_wires = 1 + static_cast<int>(rng.below(
                                      static_cast<std::uint64_t>(
                                          rail.width - 1)));
      fresh.width = moved_wires;
      rail.width -= moved_wires;
      // Move a random nonempty proper subset of cores.
      const auto moved_cores =
          1 + rng.below(rail.cores.size() - 1);
      for (std::uint64_t i = 0; i < moved_cores; ++i) {
        const auto pick =
            static_cast<std::size_t>(rng.below(rail.cores.size()));
        const int core = rail.cores[pick];
        fresh.insert_core(core);
        rail.erase_core(core);
      }
      arch.rails.push_back(std::move(fresh));
      return true;
    }
    default: {  // merge two rails
      if (rail_count < 2) return false;
      const auto a = static_cast<std::size_t>(rng.below(rail_count));
      auto b = static_cast<std::size_t>(rng.below(rail_count - 1));
      if (b >= a) ++b;
      TestRail merged = arch.rails[a];
      merged.merge_cores_from(arch.rails[b]);
      merged.width = arch.rails[a].width + arch.rails[b].width;
      merged.id = -1;
      const auto hi = std::max(a, b);
      const auto lo = std::min(a, b);
      arch.rails.erase(arch.rails.begin() + static_cast<std::ptrdiff_t>(hi));
      arch.rails.erase(arch.rails.begin() + static_cast<std::ptrdiff_t>(lo));
      arch.rails.push_back(std::move(merged));
      return true;
    }
  }
}

/// One annealing chain from `start`, drawing from its own Rng seed and
/// scoring with its own evaluator (evaluators are not thread-safe).
OptimizeResult run_chain(const Soc& soc, const TestTimeTable& table,
                         const SiTestSet& tests, int w_max,
                         const AnnealingConfig& config,
                         const TamArchitecture& start, std::uint64_t seed) {
  check_cancel(config.cancel);
  SITAM_TRACE_SPAN("tam.annealing.chain");
  SITAM_COUNTER("tam.annealing.chains", 1);
  const TamEvaluator evaluator(soc, table, tests, config.evaluator);
  DeltaEvaluator incremental(evaluator);
  const auto score = [&](const TamArchitecture& arch) {
    // Annealing moves dirty at most two rails, so nearly every scoring call
    // is a delta hit; the full evaluator runs the rest.
    return config.delta_eval ? incremental.t_soc(arch) : evaluator.t_soc(arch);
  };
  Rng rng(seed);

  TamArchitecture current = start;
  std::int64_t current_t = score(current);

  TamArchitecture best = current;
  std::int64_t best_t = current_t;

  const double t0 =
      std::max(1.0, config.initial_temperature_fraction *
                        static_cast<double>(current_t));
  const double t_end = std::max(1e-6, t0 * config.final_temperature_fraction);
  const int iterations = std::max(1, config.iterations);
  const double alpha =
      std::pow(t_end / t0, 1.0 / static_cast<double>(iterations));

  double temperature = t0;
  TamArchitecture candidate;  // hoisted so the copy below reuses its heap
  for (int i = 0; i < iterations; ++i, temperature *= alpha) {
    // Every 256 moves keeps the cancellation latency far below a
    // chain's runtime while staying invisible on the move hot path.
    if ((i & 0xFF) == 0) check_cancel(config.cancel);
    candidate = current;
    if (!mutate(candidate, rng)) continue;
    const std::int64_t candidate_t = score(candidate);
    const std::int64_t delta = candidate_t - current_t;
    if (delta <= 0 ||
        rng.unit() < std::exp(-static_cast<double>(delta) / temperature)) {
      std::swap(current, candidate);  // keep both buffers alive for reuse
      current_t = candidate_t;
      if (current_t < best_t) {
        best = current;
        best_t = current_t;
      }
    }
  }

  SITAM_CHECK(best.total_width() == w_max);
  best.validate(soc.core_count());
  OptimizeResult result;
  result.evaluation = config.delta_eval ? incremental.evaluate(best)
                                        : evaluator.evaluate(best);
  result.architecture = std::move(best);
  result.stats =
      config.delta_eval ? incremental.stats() : evaluator.stats();
  return result;
}

}  // namespace

OptimizeResult optimize_tam_annealing(const Soc& soc,
                                      const TestTimeTable& table,
                                      const SiTestSet& tests, int w_max,
                                      const AnnealingConfig& config) {
  if (w_max < 1) {
    throw std::invalid_argument(
        "optimize_tam_annealing: w_max must be >= 1");
  }
  if (soc.core_count() == 0) {
    throw std::invalid_argument("optimize_tam_annealing: SOC has no cores");
  }

  EvaluatorStats warm_start_stats;
  TamArchitecture start;
  if (config.warm_start) {
    SITAM_TRACE_SPAN("tam.annealing.warm_start");
    OptimizerConfig alg2;
    alg2.evaluator = config.evaluator;
    alg2.threads = config.threads;
    alg2.cancel = config.cancel;
    OptimizeResult seeded = optimize_tam(soc, table, tests, w_max, alg2);
    warm_start_stats = seeded.stats;
    start = std::move(seeded.architecture);
  } else {
    start = round_robin_start(soc.core_count(), w_max);
  }

  const int chains = std::max(1, config.chains);
  const auto chain_seed = [&](int chain) {
    return chain == 0 ? config.seed
                      : split_stream(config.seed,
                                     static_cast<std::uint64_t>(chain));
  };

  Executor executor(ThreadPool::workers_for(config.threads,
                                            static_cast<std::size_t>(chains)));
  std::vector<std::future<OptimizeResult>> futures;
  futures.reserve(static_cast<std::size_t>(chains));
  for (int chain = 0; chain < chains; ++chain) {
    futures.push_back(executor.submit([&, chain] {
      return run_chain(soc, table, tests, w_max, config, start,
                       chain_seed(chain));
    }));
  }
  // Collect every future before rethrowing: a cancelled chain must not
  // strand siblings against unwound stack state.
  std::vector<OptimizeResult> results;
  results.reserve(static_cast<std::size_t>(chains));
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      results.push_back(future.get());
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);

  // Winner: lowest T_soc, ties broken by lowest chain index; stats sum
  // over every chain (plus the warm start's own optimization).
  std::size_t best = 0;
  EvaluatorStats total = warm_start_stats;
  for (std::size_t i = 0; i < results.size(); ++i) {
    total += results[i].stats;
    if (results[i].evaluation.t_soc < results[best].evaluation.t_soc) {
      best = i;
    }
  }
  OptimizeResult winner = std::move(results[best]);
  winner.stats = total;
  return winner;
}

}  // namespace sitam
