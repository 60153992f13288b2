// Cooperative cancellation: util/cancel.h plus the token plumbing through
// SiWorkload::prepare, the optimizer restart loop, the annealing chains
// and SitamContext. The soak half drives a long p93791 job through the
// JobServer, cancels it mid-flight, and proves the worker comes back
// promptly, the evaluator-stats invariant still holds, and an identical
// follow-up request completes normally against unpoisoned caches.
#include "util/cancel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/context.h"
#include "serve/server.h"
#include "soc/benchmarks.h"
#include "tam/annealing.h"
#include "tam/optimizer.h"
#include "tam/verify.h"
#include "util/json.h"
#include "util/stopwatch.h"

namespace sitam {
namespace {

TEST(CancelToken, IsStickyAndThrowsOnCheck) {
  CancelToken token;
  EXPECT_FALSE(token.requested());
  EXPECT_NO_THROW(token.check());
  EXPECT_NO_THROW(check_cancel(&token));
  EXPECT_NO_THROW(check_cancel(nullptr));  // null = never cancelled

  token.request();
  EXPECT_TRUE(token.requested());
  EXPECT_THROW(token.check(), Cancelled);
  EXPECT_THROW(check_cancel(&token), Cancelled);
  token.request();  // idempotent
  EXPECT_TRUE(token.requested());
}

TEST(Cancel, PreCancelledTokenUnwindsPrepare) {
  CancelToken token;
  token.request();
  const Soc soc = load_benchmark("mini5");
  SiWorkloadConfig config;
  config.pattern_count = 300;
  config.groupings = {2};
  EXPECT_THROW((void)SiWorkload::prepare(soc, config, &token), Cancelled);
}

TEST(Cancel, PreCancelledTokenUnwindsOptimizerAndAnnealing) {
  const Soc soc = load_benchmark("mini5");
  SiWorkloadConfig config;
  config.pattern_count = 300;
  config.groupings = {2};
  const SiWorkload workload = SiWorkload::prepare(soc, config);
  const TestTimeTable table(soc, 4);

  CancelToken token;
  token.request();
  OptimizerConfig optimizer;
  optimizer.cancel = &token;
  EXPECT_THROW(
      (void)optimize_tam(soc, table, workload.tests(2), 4, optimizer),
      Cancelled);

  // The pooled restart path must also unwind cleanly (futures collected).
  optimizer.restarts = 4;
  optimizer.threads = 2;
  EXPECT_THROW(
      (void)optimize_tam(soc, table, workload.tests(2), 4, optimizer),
      Cancelled);

  AnnealingConfig annealing;
  annealing.cancel = &token;
  annealing.chains = 2;
  annealing.threads = 2;
  annealing.iterations = 1000;
  EXPECT_THROW(
      (void)optimize_tam_annealing(soc, table, workload.tests(2), 4,
                                   annealing),
      Cancelled);
}

TEST(Cancel, ContextCountsCancelledRunsAndStaysReusable) {
  SitamContext context;
  FlowRequest request;
  request.soc = context.intern(load_benchmark("mini5"));
  request.workload.pattern_count = 300;
  request.workload.groupings = {2};
  request.widths = {4};

  CancelToken token;
  token.request();
  request.cancel = &token;
  EXPECT_THROW((void)context.run(request), Cancelled);
  ContextStats stats = context.stats();
  EXPECT_EQ(stats.cancelled, 1);
  EXPECT_EQ(stats.result_hits, 0);

  // The cancelled run left no partial state: the same request without the
  // token completes, and its stats satisfy the evaluator invariant.
  request.cancel = nullptr;
  const FlowResult result = context.run(request);
  EXPECT_TRUE(verify_stats(result.optimize.stats).empty());
  EXPECT_EQ(result.optimize.stats.cache_hits + result.optimize.stats.delta_hits +
                result.optimize.stats.cache_misses,
            result.optimize.stats.evaluations);
}

/// Collects server output and lets the test block until a line matching a
/// predicate arrives.
class LineCollector {
 public:
  void operator()(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(line);
    arrived_.notify_all();
  }

  /// Blocks until some line contains `needle` (they are all single-line
  /// JSON, so substring matching on tagged fields is unambiguous).
  bool wait_for(const std::string& needle,
                std::chrono::seconds timeout = std::chrono::seconds(60)) {
    std::unique_lock<std::mutex> lock(mutex_);
    return arrived_.wait_for(lock, timeout, [&] {
      for (const std::string& line : lines_) {
        if (line.find(needle) != std::string::npos) return true;
      }
      return false;
    });
  }

  [[nodiscard]] std::vector<std::string> snapshot() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable arrived_;
  std::vector<std::string> lines_;
};

TEST(CancelSoak, MidRestartCancelReturnsPromptlyAndCachesStayClean) {
  LineCollector collector;
  serve::ServerOptions options;
  options.threads = 2;
  serve::JobServer server(options, std::ref(collector));

  // A deliberately long job: a p93791 sweep over 31 widths with the most
  // restarts a request may ask for. Run to completion it would take about
  // 100 s on a 4-vCPU x86-64 host (its 64-restart form takes about 6 s),
  // far beyond the 30 s bound below, so a faster optimizer cannot let it
  // finish before the cancel.
  std::string widths;
  for (int w = 8; w <= 128; w += 4) {
    if (!widths.empty()) widths += ',';
    widths += std::to_string(w);
  }
  const std::string long_job =
      R"({"op":"sweep","id":"soak","soc":"p93791","widths":[)" + widths +
      R"(],"parts":[1,2,4],"nr":20000,"restarts":1024})";
  ASSERT_TRUE(server.submit_line(long_job));
  ASSERT_TRUE(collector.wait_for("\"stage\":\"running\""));
  // Let the job get past workload preparation so the token lands inside
  // the optimizer restart loop (cancelling a job that already finished
  // would fail the wait below).
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));

  // Cancel mid-flight and require the worker back within a bound that a
  // *completed* run of this job would blow through many times over.
  const Stopwatch cancelled_at;
  ASSERT_TRUE(server.submit_line(R"({"op":"cancel","id":"soak"})"));
  ASSERT_TRUE(collector.wait_for("\"type\":\"cancelled\""));
  server.drain();
  EXPECT_LT(cancelled_at.seconds(), 30.0);

  EXPECT_EQ(server.stats().cancelled, 1);
  EXPECT_EQ(server.context_stats().cancelled, 1);

  // The same SOC again, small enough to finish: the cancelled run must
  // not have poisoned the workload cache or the result memo.
  const std::string follow_up =
      R"({"op":"optimize","id":"after","soc":"p93791","wmax":16,"nr":2000})";
  ASSERT_TRUE(server.submit_line(follow_up));
  server.drain();
  ASSERT_TRUE(collector.wait_for("\"id\":\"after\",\"op\":\"optimize\""));

  // The evaluator-stats invariant (cache_hits + delta_hits + cache_misses
  // == evaluations) from the result line of the follow-up run.
  for (const std::string& line : collector.snapshot()) {
    if (line.find("\"type\":\"result\"") == std::string::npos) continue;
    const JsonValue root = parse_json(line);
    const JsonValue* stats = root.find("stats");
    ASSERT_NE(stats, nullptr) << line;
    EXPECT_EQ(stats->find("cache_hits")->as_int() +
                  stats->find("delta_hits")->as_int() +
                  stats->find("cache_misses")->as_int(),
              stats->find("evaluations")->as_int())
        << line;
  }
  EXPECT_EQ(server.stats().completed, 1);
}

}  // namespace
}  // namespace sitam
