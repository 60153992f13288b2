// SitamContext: the reentrant front door to the whole optimization flow.
//
// Everything the flow used to pick up ambiently (a freshly prepared
// workload per CLI invocation, per-process caches) is owned here
// explicitly, as three bounded single-flight StageCaches
// (core/stage_cache.h): the SOC arena (structurally identical SOCs are
// interned and shared), the prepared workloads, and the finished results
// keyed by a content hash of the full request. There are no hidden
// statics — two contexts are fully independent, and one context is safe
// to share across request threads (the job server in src/serve runs
// every worker against a single context).
//
// The unit of work is a FlowRequest -> FlowResult round trip:
//
//   SitamContext context;
//   FlowRequest request;
//   request.soc = context.intern(load_benchmark("d695"));
//   request.workload.groupings = {4};
//   FlowResult result = context.run(request);
//
// Identical requests (same SOC structure, workload config, widths,
// optimizer knobs) hit the result memo and return the stored FlowResult
// verbatim; requests that share a workload config prepare it once, even
// when they arrive together. The hit counters in ContextStats make the
// reuse observable. Cancellation is cooperative: a request carries a
// non-owning CancelToken that unwinds the prepare and optimize loops with
// sitam::Cancelled; a cancelled run stores nothing in any cache.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/flow.h"
#include "core/stage_cache.h"
#include "tam/area.h"
#include "util/cancel.h"

namespace sitam {

/// What the request asks the flow to do.
enum class FlowMode {
  kOptimize,  ///< One width, one grouping: Algorithm 2 + bounds + area.
  kSweep,     ///< Full §5 protocol: every width x every grouping.
};

/// One self-contained unit of flow work. Everything that affects the
/// result is inside the request (and hashed into its identity key);
/// `cancel` is control-flow, not identity, and is excluded from the key.
struct FlowRequest {
  FlowMode mode = FlowMode::kOptimize;
  /// The SOC under test; intern() it through the context so identical
  /// models share one arena entry. Must not be null.
  std::shared_ptr<const Soc> soc;
  /// Workload generation/compaction knobs. kOptimize uses the *first*
  /// grouping only; kSweep uses all of them.
  SiWorkloadConfig workload;
  /// TAM widths: kOptimize uses the first entry as W_max; kSweep runs one
  /// experiment per entry. Must not be empty.
  std::vector<int> widths = {32};
  /// Algorithm 2 knobs. `optimizer.threads` and `optimizer.cancel` are
  /// excluded from the request key (documented to never change results).
  OptimizerConfig optimizer;
  /// Non-owning cooperative cancellation token for this request (nullptr =
  /// never cancelled). Overrides optimizer.cancel for the whole flow —
  /// workload preparation and every optimizer loop check the same token.
  const CancelToken* cancel = nullptr;
};

/// The flow's answer. Which members are meaningful depends on `mode`.
struct FlowResult {
  FlowMode mode = FlowMode::kOptimize;

  // kOptimize:
  OptimizeResult optimize;     ///< Architecture, evaluation, stats.
  SiTestSet tests;             ///< The SI test set the run scored against.
  std::int64_t lower_bound = 0;  ///< Architecture-independent bound (cc).
  WrapperArea area;            ///< SI wrapper cost of the winner.

  // kSweep:
  SweepResult sweep;           ///< One ExperimentOutcome row per width.
};

/// Monotonic counters proving (or disproving) cache reuse; readable at any
/// time via SitamContext::stats(). Each lookup that returns a value counts
/// once, as a miss for the caller that ran the compute and as a hit for
/// everyone else, so hits + misses == lookups per tier.
struct ContextStats {
  std::int64_t requests = 0;        ///< Well-formed run() calls.
  std::int64_t result_hits = 0;     ///< Served verbatim from the memo.
  std::int64_t result_misses = 0;   ///< Computed end to end.
  std::int64_t workload_hits = 0;   ///< Prepared workload reused.
  std::int64_t workload_misses = 0; ///< Workload generated + compacted.
  std::int64_t cancelled = 0;       ///< Requests unwound by Cancelled.
  std::int64_t socs_interned = 0;   ///< Distinct models in the arena.
};

/// Reentrant flow engine; see the file comment. Thread-safe: any number of
/// threads may call run()/intern()/stats() concurrently. Heavy work
/// (prepare, optimize) runs outside every lock, so concurrent distinct
/// requests do not serialize; concurrent requests for the same workload or
/// the same result wait for one computation instead of repeating it.
class SitamContext {
 public:
  SitamContext() = default;

  SitamContext(const SitamContext&) = delete;
  SitamContext& operator=(const SitamContext&) = delete;

  /// Canonical shared instance for `soc`: structurally identical models
  /// (same name, modules, scan chains, pattern counts) map to one arena
  /// entry. Eviction only drops the arena's own reference — outstanding
  /// shared_ptrs stay valid.
  [[nodiscard]] std::shared_ptr<const Soc> intern(Soc soc);

  /// Runs the flow for `request`, consulting the result memo first and the
  /// workload tier second. Throws sitam::Cancelled if request.cancel was
  /// triggered (the caches are left exactly as before the call), and
  /// std::invalid_argument for a malformed request (null SOC, empty
  /// widths/groupings).
  [[nodiscard]] FlowResult run(const FlowRequest& request);

  /// Snapshot of the reuse counters.
  [[nodiscard]] ContextStats stats() const;

  /// Drops every cached workload, stored result and arena entry.
  void clear();

  /// Content hash identifying `request` up to result equality: mixes the
  /// SOC structure, workload config, widths, mode and every
  /// result-affecting optimizer knob. Deliberately excludes
  /// optimizer.threads, workload.parallel_prepare and the cancel token —
  /// all documented to be bit-identical switches.
  [[nodiscard]] static std::uint64_t request_key(const FlowRequest& request);

 private:
  /// Computes a FlowResult end to end (workload tier + optimize/sweep).
  [[nodiscard]] FlowResult compute(const FlowRequest& request);

  // Capacities, in finished entries (LRU beyond them):
  StageCache<Soc> arena_{64};             ///< Interned SOC models.
  StageCache<SiWorkload> workloads_{16};  ///< Prepared workloads.
  StageCache<FlowResult> results_{64};    ///< The result memo.

  mutable std::mutex mutex_;
  ContextStats stats_;  // guarded_by(mutex_)
};

}  // namespace sitam
