// JobServer concurrency: N client threads submit a shuffled mix of
// identical and distinct requests; the per-id result lines must be
// byte-identical across worker thread counts {1, 2, hardware} (the
// deterministic-parallelism contract lifted to the serving layer), and
// concurrent identical jobs must collapse onto one underlying
// optimization (dedupe groups + the context result memo).
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/fleet.h"
#include "serve/protocol.h"
#include "store/store.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sitam {
namespace {

/// Thread-safe response recorder keyed by the echoed job id.
class Recorder {
 public:
  void operator()(const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.push_back(line);
  }

  /// type=="result" lines keyed by id, with the id member removed so
  /// payloads of deduped jobs can be compared directly.
  [[nodiscard]] std::map<std::string, std::string> results() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::map<std::string, std::string> by_id;
    for (const std::string& line : lines_) {
      const JsonValue root = parse_json(line);
      const JsonValue* type = root.find("type");
      if (type == nullptr || type->as_string() != "result") continue;
      const std::string id = root.find("id")->as_string();
      std::string payload = line;
      const std::string tag = "\"id\":\"" + id + "\",";
      const std::size_t at = payload.find(tag);
      if (at != std::string::npos) payload.erase(at, tag.size());
      by_id.emplace(id, std::move(payload));
    }
    return by_id;
  }

  [[nodiscard]] std::vector<std::string> lines() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return lines_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::string> lines_;
};

/// The request mix: per client, four distinct configurations plus two
/// repeats of configuration 0 — every client submits the same multiset in
/// a client-specific shuffled order, with globally unique ids.
std::vector<std::string> client_requests(int client, std::uint64_t seed) {
  const std::vector<std::string> configs = {
      R"("soc":"mini5","wmax":4,"nr":300)",
      R"("soc":"mini5","wmax":2,"nr":300,"parts":2)",
      R"("soc":"d695","wmax":8,"nr":500)",
      R"("soc":"mini5","wmax":4,"nr":300,"parts":1)",
      R"("soc":"mini5","wmax":4,"nr":300)",
      R"("soc":"mini5","wmax":4,"nr":300)",
  };
  std::vector<std::string> requests;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    requests.push_back(R"({"op":"optimize","id":"c)" +
                       std::to_string(client) + "-" + std::to_string(i) +
                       R"(",)" + configs[i] + "}");
  }
  // Fisher-Yates with the repo Rng: deterministic per (client, seed).
  Rng rng(split_stream(seed, static_cast<std::uint64_t>(client)));
  for (std::size_t i = requests.size(); i > 1; --i) {
    std::swap(requests[i - 1], requests[rng.below(i)]);
  }
  return requests;
}

/// Runs the whole client fleet against a server with `threads` workers
/// and returns the per-id result payloads.
std::map<std::string, std::string> run_fleet(int threads,
                                             std::uint64_t seed) {
  Recorder recorder;
  serve::ServerOptions options;
  options.threads = threads;
  options.progress = false;
  serve::JobServer server(options, std::ref(recorder));

  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&server, c, seed] {
      for (const std::string& line : client_requests(c, seed)) {
        ASSERT_TRUE(server.submit_line(line));
      }
    });
  }
  for (std::thread& client : clients) client.join();
  server.drain();

  const std::map<std::string, std::string> results = recorder.results();
  EXPECT_EQ(results.size(), 3u * 6u);  // every job answered exactly once
  return results;
}

TEST(JobServer, ByteIdenticalResultsForEveryThreadCount) {
  const std::uint64_t seed = 0xC0FFEEULL;
  const std::map<std::string, std::string> serial = run_fleet(1, seed);
  const std::map<std::string, std::string> dual = run_fleet(2, seed);
  const std::map<std::string, std::string> wide =
      run_fleet(ThreadPool::hardware_threads(), seed);
  EXPECT_EQ(serial, dual);
  EXPECT_EQ(serial, wide);

  // Identical configurations must have identical payloads within one run:
  // ids c0-*, c1-*, c2-* index the same multiset per client, and configs
  // 0, 4, 5 are the same request.
  ASSERT_TRUE(serial.count("c0-0") == 1 && serial.count("c1-4") == 1);
  EXPECT_EQ(serial.at("c0-0"), serial.at("c0-4"));
  EXPECT_EQ(serial.at("c0-0"), serial.at("c1-5"));
  EXPECT_EQ(serial.at("c0-0"), serial.at("c2-0"));
  EXPECT_NE(serial.at("c0-0"), serial.at("c0-1"));
}

TEST(JobServer, ConcurrentIdenticalJobsShareOneOptimization) {
  Recorder recorder;
  serve::ServerOptions options;
  options.threads = 1;  // the leader occupies the only worker
  options.progress = false;
  serve::JobServer server(options, std::ref(recorder));

  // Back-to-back identical jobs: the first becomes the group leader, the
  // rest must ride along as followers (submission is far faster than the
  // optimization, and the single worker can't finish early).
  const std::string body = R"("soc":"d695","wmax":16,"nr":2000,"restarts":4)";
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(server.submit_line(R"({"op":"optimize","id":"dup-)" +
                                   std::to_string(i) + R"(",)" + body +
                                   "}"));
  }
  server.drain();

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.jobs, 3);
  EXPECT_EQ(stats.completed, 3);
  const ContextStats context = server.context_stats();
  // One underlying optimization: followers + memo hits cover the rest.
  EXPECT_EQ(context.result_misses, 1);
  EXPECT_EQ(stats.followers + context.result_hits, 2);

  const std::map<std::string, std::string> results = recorder.results();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results.at("dup-0"), results.at("dup-1"));
  EXPECT_EQ(results.at("dup-0"), results.at("dup-2"));
}

TEST(JobServer, ControlPlaneAndErrorEnvelopes) {
  Recorder recorder;
  serve::ServerOptions options;
  options.threads = 1;
  serve::JobServer server(options, std::ref(recorder));

  EXPECT_TRUE(server.submit_line(R"({"op":"ping"})"));
  EXPECT_TRUE(
      server.submit_line(R"({"op":"optimize","id":"x","soc":"nope"})"));
  EXPECT_TRUE(server.submit_line(R"({"op":"cancel","id":"ghost"})"));
  EXPECT_TRUE(server.submit_line(R"({"op":"stats"})"));
  server.drain();
  EXPECT_FALSE(server.submit_line(R"({"op":"shutdown"})"));
  // After shutdown the server stops accepting without answering.
  EXPECT_FALSE(server.submit_line(R"({"op":"ping"})"));

  bool saw_pong = false;
  bool saw_unknown_soc = false;
  bool saw_unknown_id = false;
  bool saw_stats = false;
  bool saw_bye = false;
  for (const std::string& line : recorder.lines()) {
    const JsonValue root = parse_json(line);  // every line is valid JSON
    const std::string& type = root.find("type")->as_string();
    saw_pong |= type == "pong";
    saw_stats |= type == "stats";
    saw_bye |= type == "bye";
    if (type == "error") {
      const std::string& error = root.find("error")->as_string();
      saw_unknown_soc |= error.find("unknown benchmark") != std::string::npos;
      saw_unknown_id |= error.find("unknown job id") != std::string::npos;
    }
  }
  EXPECT_TRUE(saw_pong);
  EXPECT_TRUE(saw_unknown_soc);
  EXPECT_TRUE(saw_unknown_id);
  EXPECT_TRUE(saw_stats);
  EXPECT_TRUE(saw_bye);
}

// Every field docs/SERVER.md lists for `optimize` (and `widths`, which
// `sweep` adds) parses on one line.
TEST(JobServer, DrainReturnsWhenTheSinkThrowsOnResults) {
  // A sink that refuses every result line: each job's worker still leaves
  // the in-flight count, so drain() and the destructor return, and the
  // server goes on answering.
  Recorder recorder;
  std::atomic<int> refused{0};
  serve::ServerOptions options;
  options.threads = 2;
  {
    serve::JobServer server(options, [&](const std::string& line) {
      if (parse_json(line).find("type")->as_string() == "result") {
        ++refused;
        throw std::runtime_error("sink refused a result line");
      }
      recorder(line);
    });
    ASSERT_TRUE(server.submit_line(
        R"({"op":"optimize","id":"a","soc":"mini5","wmax":4,"nr":300})"));
    ASSERT_TRUE(server.submit_line(
        R"({"op":"optimize","id":"b","soc":"mini5","wmax":5,"nr":300})"));
    server.drain();
    EXPECT_EQ(refused.load(), 2);
    EXPECT_EQ(server.stats().completed, 2);
    EXPECT_TRUE(server.submit_line(R"({"op":"ping"})"));
    EXPECT_TRUE(server.submit_line(
        R"({"op":"optimize","id":"c","soc":"mini5","wmax":6,"nr":300})"));
  }  // the destructor drains job c
  EXPECT_EQ(refused.load(), 3);
  const std::vector<std::string> lines = recorder.lines();
  EXPECT_EQ(std::count_if(lines.begin(), lines.end(),
                          [](const std::string& line) {
                            return parse_json(line).find("type")->as_string() ==
                                   "pong";
                          }),
            1);
}

TEST(Protocol, EveryDocumentedJobFieldParses) {
  const serve::Request request = serve::parse_request(
      R"({"op":"optimize","id":"all","soc":"d695","wmax":16,"nr":2000,)"
      R"("seed":7,"parts":[2],"restarts":3,"no_delta":true,"no_cache":true,)"
      R"("priority":"high","trace":true})");
  EXPECT_EQ(request.op, serve::RequestOp::kOptimize);
  EXPECT_EQ(request.id, "all");
  EXPECT_EQ(request.soc, "d695");
  EXPECT_EQ(request.widths, std::vector<int>{16});
  EXPECT_EQ(request.pattern_count, 2000);
  EXPECT_EQ(request.seed, 7u);
  EXPECT_EQ(request.groupings, std::vector<int>{2});
  EXPECT_EQ(request.restarts, 3);
  EXPECT_FALSE(request.delta_eval);
  EXPECT_EQ(request.priority, JobPriority::kHigh);
  EXPECT_TRUE(request.trace);

  const serve::Request sweep = serve::parse_request(
      R"({"op":"sweep","id":"s","soc_text":"x","widths":[8,16]})");
  EXPECT_EQ(sweep.op, serve::RequestOp::kSweep);
  EXPECT_EQ(sweep.soc_text, "x");
  EXPECT_EQ(sweep.widths, (std::vector<int>{8, 16}));
}

// `no_cache` has no effect, but it is still type-checked as a bool.
TEST(Protocol, NonBoolNoCacheGetsTheErrorEnvelope) {
  Recorder recorder;
  serve::ServerOptions options;
  options.threads = 1;
  options.progress = false;
  serve::JobServer server(options, std::ref(recorder));
  EXPECT_TRUE(server.submit_line(
      R"({"op":"optimize","id":"nc","soc":"d695","no_cache":1})"));
  server.drain();
  EXPECT_EQ(recorder.lines(),
            std::vector<std::string>{
                R"({"type":"error","error":"field 'no_cache' must be a boolean"})"});
  EXPECT_EQ(server.stats().malformed, 1);
  EXPECT_EQ(server.stats().jobs, 0);
}

// The fleet's `full` and `memo` backends send the same evaluator settings,
// so one (SOC, W, seed) pair is computed once and answered twice.
TEST(JobServer, FleetFullAndMemoCellsShareOneComputation) {
  serve::FleetOptions fleet;
  fleet.socs = {"d695"};
  fleet.widths = {16};
  fleet.backends = {"full", "memo"};
  fleet.seeds = {1};
  const std::vector<serve::FleetCell> cells = serve::build_fleet_grid(fleet);
  ASSERT_EQ(cells.size(), 2u);

  Recorder recorder;
  serve::ServerOptions options;
  options.threads = 2;
  options.progress = false;
  serve::JobServer server(options, std::ref(recorder));
  for (const serve::FleetCell& cell : cells) {
    ASSERT_TRUE(server.submit_line(serve::cell_request_line(fleet, cell)));
  }
  server.drain();

  EXPECT_EQ(server.context_stats().result_misses, 1);
  const std::map<std::string, std::string> results = recorder.results();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results.at(cells[0].scenario()), results.at(cells[1].scenario()));
}

TEST(JobServer, StatsLineAndSnapshotRecordArePinned) {
  // The `stats` response and the "serve.stats" store record both list the
  // ServerStats + ContextStats counters; clients and dashboards parse them
  // by name, so names, order and values are pinned.
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("sitam_serve_stats_" +
        std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
        ".jsonl"))
          .string();
  std::filesystem::remove(path);
  Recorder recorder;
  {
    serve::ServerOptions options;
    options.threads = 1;
    options.progress = false;
    options.stats_store_path = path;
    options.stats_store_every = 1;
    serve::JobServer server(options, std::ref(recorder));
    const std::string job = R"("soc":"mini5","wmax":4,"nr":300})";
    ASSERT_TRUE(server.submit_line(R"({"op":"ping"})"));
    ASSERT_TRUE(server.submit_line(R"({"op":"bogus"})"));
    ASSERT_TRUE(server.submit_line(R"({"op":"optimize","id":"a",)" + job));
    server.drain();
    ASSERT_TRUE(server.submit_line(R"({"op":"optimize","id":"b",)" + job));
    server.drain();
    ASSERT_TRUE(server.submit_line(R"({"op":"stats"})"));
  }
  EXPECT_EQ(recorder.lines().back(),
            R"({"type":"stats","server":{"received":5,"malformed":1,)"
            R"("jobs":2,"followers":0,"completed":2,"cancelled":0,)"
            R"("failed":0},"context":{"requests":2,"result_hits":1,)"
            R"("result_misses":1,"workload_hits":0,"workload_misses":1,)"
            R"("cancelled":0,"socs_interned":1}})");

  const std::vector<store::StoreRecord> records =
      store::ResultStore::read_all(path);
  std::filesystem::remove(path);
  ASSERT_EQ(records.size(), 2u);
  std::string metrics;
  for (const auto& [name, value] : records.back().metrics) {
    metrics += name + "=" + std::to_string(static_cast<int>(value)) + " ";
  }
  EXPECT_EQ(metrics,
            "context.cancelled=0 context.requests=2 context.result_hits=1 "
            "context.result_misses=1 context.socs_interned=1 "
            "context.workload_hits=0 context.workload_misses=1 "
            "server.cancelled=0 server.completed=2 server.failed=0 "
            "server.followers=0 server.jobs=2 server.malformed=1 "
            "server.received=4 ");
  EXPECT_EQ(records.front().result_digest, "953612dd395cf1e4");
  EXPECT_EQ(records.back().result_digest, "5781fd2d12fdb6e7");
}

TEST(JobServer, ServedSweepRunsOnItsWorkerAndKeepsItsResultLine) {
  // The worker pool is a served job's only fan-out: its optimizer runs
  // with threads = 1, so every restart span of a traced sweep sits on one
  // track, and the result line stays the one pinned below.
  const std::string job =
      R"("soc":"d695","widths":[8,16],"nr":600,"parts":[1,2],"restarts":3)";
  // One server per job: the result memo would answer the second one.
  const auto serve_one = [](const std::string& line) {
    Recorder recorder;
    serve::ServerOptions options;
    options.threads = 2;
    options.progress = false;
    serve::JobServer server(options, std::ref(recorder));
    EXPECT_TRUE(server.submit_line(line));
    server.drain();
    return recorder.results();
  };
  const std::map<std::string, std::string> results =
      serve_one(R"({"op":"sweep","id":"pin",)" + job + "}");
  ASSERT_EQ(results.count("pin"), 1u);
  EXPECT_EQ(results.at("pin"),
            R"({"type":"result","op":"sweep","n_r":600,"widths":[8,16],)"
            R"("rows":[{"w_max":8,"t_baseline":100414,"t_g":[102196,99025],)"
            R"("t_min":99025},{"w_max":16,"t_baseline":57035,)"
            R"("t_g":[54218,52632],"t_min":52632}],"stats":{)"
            R"("evaluations":1600,"cache_hits":0,"delta_hits":1588,)"
            R"("cache_misses":12}})");

  const std::map<std::string, std::string> traced = serve_one(
      R"({"op":"sweep","id":"traced","trace":true,)" + job + "}");
  ASSERT_EQ(traced.count("traced"), 1u);
  const JsonValue root = parse_json(traced.at("traced"));
  const JsonValue* trace =
      root.find("observability")->find("trace")->find("traceEvents");
  ASSERT_NE(trace, nullptr);
  std::set<std::int64_t> restart_tracks;
  for (const JsonValue& event : trace->as_array()) {
    const JsonValue* name = event.find("name");
    if (name != nullptr && name->as_string() == "tam.optimizer.restart") {
      restart_tracks.insert(event.find("tid")->as_int());
    }
  }
  EXPECT_EQ(restart_tracks.size(), 1u);
}

TEST(JobServer, ServeStreamSpeaksTheProtocolEndToEnd) {
  std::istringstream in(
      R"({"op":"ping"})"
      "\n"
      R"({"op":"optimize","id":"s1","soc":"mini5","wmax":4,"nr":300})"
      "\n"
      R"({"op":"shutdown"})"
      "\n"
      R"({"op":"ping"})"  // after shutdown: must not be answered
      "\n");
  std::ostringstream out;
  serve::ServerOptions options;
  options.threads = 2;
  options.progress = false;
  EXPECT_EQ(serve::serve_stream(in, out, options), 0);

  std::vector<std::string> types;
  std::istringstream lines(out.str());
  for (std::string line; std::getline(lines, line);) {
    types.push_back(parse_json(line).find("type")->as_string());
  }
  ASSERT_EQ(types.size(), 4u);
  EXPECT_EQ(types[0], "pong");
  EXPECT_EQ(types[1], "ack");
  EXPECT_EQ(types[2], "result");
  EXPECT_EQ(types[3], "bye");
}

}  // namespace
}  // namespace sitam
