// SitamContext: the reentrant flow engine of core/context.h. Proves the
// tentpole properties: repeated identical requests reuse the workload
// cache and the result memo (hit counters observable via stats()), reuse
// returns bit-identical results, the SOC arena interns structurally
// identical models, and concurrent requests prepare a shared workload once.
// The cache bound itself is covered by stage_cache_test.
#include "core/context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "soc/benchmarks.h"
#include "tam/verify.h"

namespace sitam {
namespace {

FlowRequest small_request(SitamContext& context, int w_max = 4,
                          int parts = 2) {
  FlowRequest request;
  request.mode = FlowMode::kOptimize;
  request.soc = context.intern(load_benchmark("mini5"));
  request.workload.pattern_count = 300;
  request.workload.groupings = {parts};
  request.widths = {w_max};
  return request;
}

/// The full deterministic payload — byte-level equality via the serve
/// envelope (id fixed), which serializes every field a client can see.
std::string result_bytes(const FlowRequest& request,
                         const FlowResult& result) {
  serve::Request envelope;
  envelope.op = request.mode == FlowMode::kSweep ? serve::RequestOp::kSweep
                                                 : serve::RequestOp::kOptimize;
  envelope.id = std::string(1, 'x');
  envelope.pattern_count = request.workload.pattern_count;
  envelope.groupings = request.workload.groupings;
  envelope.widths = request.widths;
  return serve::result_response("x", envelope, result, "");
}

TEST(SitamContext, SequentialIdenticalRequestsHitBothCaches) {
  SitamContext context;
  const FlowRequest request = small_request(context);

  const FlowResult first = context.run(request);
  ContextStats stats = context.stats();
  EXPECT_EQ(stats.requests, 1);
  EXPECT_EQ(stats.result_hits, 0);
  EXPECT_EQ(stats.result_misses, 1);
  EXPECT_EQ(stats.workload_hits, 0);
  EXPECT_EQ(stats.workload_misses, 1);

  const FlowResult second = context.run(request);
  stats = context.stats();
  EXPECT_EQ(stats.requests, 2);
  EXPECT_EQ(stats.result_hits, 1);  // served verbatim from the memo
  EXPECT_EQ(stats.result_misses, 1);
  EXPECT_EQ(stats.workload_misses, 1);  // nothing re-prepared

  EXPECT_EQ(result_bytes(request, first), result_bytes(request, second));
  EXPECT_GT(first.optimize.evaluation.t_soc, 0);
  EXPECT_TRUE(verify_stats(first.optimize.stats).empty());
}

TEST(SitamContext, SameWorkloadDifferentWidthReusesPreparedWorkload) {
  SitamContext context;
  const FlowRequest narrow = small_request(context, /*w_max=*/2);
  const FlowRequest wide = small_request(context, /*w_max=*/4);

  (void)context.run(narrow);
  (void)context.run(wide);
  const ContextStats stats = context.stats();
  // Different widths are different results but the same prepared
  // workload: one prepare, one workload-cache hit.
  EXPECT_EQ(stats.result_misses, 2);
  EXPECT_EQ(stats.workload_misses, 1);
  EXPECT_EQ(stats.workload_hits, 1);
}

TEST(SitamContext, OptimizerKnobsChangeTheRequestKey) {
  SitamContext context;
  FlowRequest request = small_request(context);
  const std::uint64_t base = SitamContext::request_key(request);

  FlowRequest variant = request;
  variant.optimizer.restarts = 3;
  EXPECT_NE(SitamContext::request_key(variant), base);

  variant = request;
  variant.optimizer.delta_eval = false;  // changes stats, so changes key
  EXPECT_NE(SitamContext::request_key(variant), base);

  variant = request;
  variant.mode = FlowMode::kSweep;
  EXPECT_NE(SitamContext::request_key(variant), base);

  // threads and cancel are control knobs, not identity: documented
  // bit-identical, so they must NOT change the key.
  variant = request;
  variant.optimizer.threads = 7;
  CancelToken token;
  variant.cancel = &token;
  EXPECT_EQ(SitamContext::request_key(variant), base);
}

TEST(SitamContext, InternDeduplicatesStructurallyIdenticalSocs) {
  SitamContext context;
  const auto a = context.intern(load_benchmark("mini5"));
  const auto b = context.intern(load_benchmark("mini5"));
  EXPECT_EQ(a.get(), b.get());  // one arena entry, shared
  const auto c = context.intern(load_benchmark("d695"));
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(context.stats().socs_interned, 2);

  Soc tweaked = load_benchmark("mini5");
  tweaked.modules.front().patterns += 1;
  const auto d = context.intern(std::move(tweaked));
  EXPECT_NE(a.get(), d.get());  // structural change = new identity
}

TEST(SitamContext, ConcurrentRequestsShareOneWorkloadPrepare) {
  // Four requests that differ only in W arrive together: the first one
  // prepares the workload, the other three wait for it instead of
  // preparing it again.
  SitamContext context;
  const auto soc = context.intern(load_benchmark("d695"));
  constexpr int kThreads = 4;
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  std::vector<std::int64_t> t_soc(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FlowRequest request;
      request.soc = soc;
      request.workload.pattern_count = 2000;
      request.workload.groupings = {2};
      request.widths = {8 + 4 * t};
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      EXPECT_NO_THROW(t_soc[static_cast<std::size_t>(t)] =
                          context.run(request).optimize.evaluation.t_soc);
    });
  }
  for (std::thread& thread : threads) thread.join();
  const ContextStats stats = context.stats();
  EXPECT_EQ(stats.workload_misses, 1);
  EXPECT_EQ(stats.workload_hits, kThreads - 1);
  EXPECT_EQ(stats.result_misses, kThreads);
  for (const std::int64_t t : t_soc) EXPECT_GT(t, 0);
}

TEST(SitamContext, RequestKeyIsPinned) {
  // Served results are memoized under this key; it must not move.
  SitamContext context;
  FlowRequest request;
  request.soc = context.intern(load_benchmark("d695"));
  request.workload.pattern_count = 2000;
  request.workload.groupings = {1, 2, 4};
  request.workload.seed = 7;
  request.widths = {16};
  EXPECT_EQ(SitamContext::request_key(request), 0xf55430c3dedfee70ULL);
}

TEST(SitamContext, ClearDropsEveryCache) {
  SitamContext context;
  const FlowRequest request = small_request(context);
  (void)context.run(request);
  context.clear();
  (void)context.run(request);
  const ContextStats stats = context.stats();
  EXPECT_EQ(stats.result_hits, 0);
  EXPECT_EQ(stats.workload_hits, 0);
  EXPECT_EQ(stats.result_misses, 2);
  EXPECT_EQ(stats.workload_misses, 2);
}

TEST(SitamContext, RejectsMalformedRequests) {
  SitamContext context;
  FlowRequest request;  // null soc
  EXPECT_THROW((void)context.run(request), std::invalid_argument);

  request = small_request(context);
  request.widths.clear();
  EXPECT_THROW((void)context.run(request), std::invalid_argument);

  request = small_request(context);
  request.workload.groupings.clear();
  EXPECT_THROW((void)context.run(request), std::invalid_argument);
}

TEST(SitamContext, SweepModeMatchesDirectFlowCall) {
  SitamContext context;
  FlowRequest request = small_request(context);
  request.mode = FlowMode::kSweep;
  request.workload.groupings = {1, 2};
  request.widths = {2, 4};
  const FlowResult result = context.run(request);
  ASSERT_EQ(result.sweep.rows.size(), 2u);
  EXPECT_EQ(result.sweep.soc_name, "mini5");
  for (const ExperimentOutcome& row : result.sweep.rows) {
    EXPECT_EQ(row.per_grouping.size(), 2u);
    EXPECT_GT(row.t_min, 0);
  }
}

}  // namespace
}  // namespace sitam
