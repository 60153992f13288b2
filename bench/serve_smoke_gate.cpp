// Serving-layer gate (runs as the `bench_smoke_serve` ctest): drives an
// in-process JobServer with three requests of which two are identical,
// then checks that
//   (a) every job is answered with a result envelope,
//   (b) the identical pair collapsed onto exactly one underlying
//       optimization (the context ran one compute for it, the second
//       answer came from the in-flight group or the result memo),
//   (c) the deduped answers are byte-identical apart from the job id,
//   (d) the evaluator counters in each result reconcile
//       (cache_hits + delta_hits + cache_misses == evaluations).
// Exits nonzero on any violation.
//
// Flags: --threads=N --nr=N
#include <cstdint>
#include <iostream>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/server.h"
#include "util/cli.h"
#include "util/json.h"

namespace {

using namespace sitam;

int fail(const std::string& message) {
  std::cerr << "serve_smoke_gate: FAIL: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) try {
  const CliArgs args(argc, argv);
  args.require_known({"threads", "nr"});
  const int threads = static_cast<int>(args.get_or("threads", std::int64_t{2}));
  const std::int64_t nr = args.get_or("nr", std::int64_t{2000});

  std::mutex mutex;
  std::vector<std::string> lines;
  serve::ServerOptions options;
  options.threads = threads;
  options.progress = false;
  serve::JobServer server(options, [&mutex, &lines](const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  });

  // Three requests, the first and third identical; the middle one differs
  // so the dedupe must discriminate, not blanket-merge.
  const std::string twin =
      R"("soc":"d695","wmax":16,"nr":)" + std::to_string(nr) +
      R"(,"restarts":4)";
  const std::string other =
      R"("soc":"d695","wmax":8,"nr":)" + std::to_string(nr) + "}";
  if (!server.submit_line(R"({"op":"optimize","id":"twin-a",)" + twin + "}") ||
      !server.submit_line(R"({"op":"optimize","id":"solo",)" + other) ||
      !server.submit_line(R"({"op":"optimize","id":"twin-b",)" + twin + "}")) {
    return fail("server rejected a well-formed request");
  }
  server.drain();

  // (a) Three result envelopes, one per job id.
  std::map<std::string, std::string> results;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    for (const std::string& line : lines) {
      const JsonValue root = parse_json(line);
      const JsonValue* type = root.find("type");
      if (type == nullptr || type->as_string() != "result") continue;
      const std::string id = root.find("id")->as_string();
      std::string payload = line;
      const std::string tag = "\"id\":\"" + id + "\",";
      const std::size_t at = payload.find(tag);
      if (at != std::string::npos) payload.erase(at, tag.size());
      results.emplace(id, std::move(payload));
    }
  }
  if (results.size() != 3 || results.count("twin-a") == 0 ||
      results.count("twin-b") == 0 || results.count("solo") == 0) {
    return fail("expected results for twin-a, twin-b and solo; got " +
                std::to_string(results.size()));
  }

  // (b) Exactly one underlying optimization for the identical pair: two
  // distinct configurations were computed, the third answer was shared.
  const serve::ServerStats stats = server.stats();
  const ContextStats context = server.context_stats();
  if (context.result_misses != 2) {
    return fail("expected 2 computed configurations, context ran " +
                std::to_string(context.result_misses));
  }
  if (stats.followers + context.result_hits != 1) {
    return fail("the twin request was recomputed instead of shared "
                "(followers=" + std::to_string(stats.followers) +
                ", result_hits=" + std::to_string(context.result_hits) + ")");
  }
  if (stats.jobs != 3 || stats.completed != 3) {
    return fail("job accounting off: jobs=" + std::to_string(stats.jobs) +
                " completed=" + std::to_string(stats.completed));
  }

  // (c) Shared answer, identical bytes.
  if (results.at("twin-a") != results.at("twin-b")) {
    return fail("deduped twins returned different payloads");
  }
  if (results.at("twin-a") == results.at("solo")) {
    return fail("distinct configurations returned identical payloads");
  }

  // (d) Evaluator counters reconcile inside every result envelope.
  for (const auto& [id, payload] : results) {
    const JsonValue root = parse_json(payload);
    const JsonValue* evaluator = root.find("stats");
    if (evaluator == nullptr) return fail("result for " + id + " lacks stats");
    const std::int64_t evaluations = evaluator->find("evaluations")->as_int();
    const std::int64_t resolved = evaluator->find("cache_hits")->as_int() +
                                  evaluator->find("delta_hits")->as_int() +
                                  evaluator->find("cache_misses")->as_int();
    if (evaluations <= 0 || resolved != evaluations) {
      return fail("evaluator counters for " + id + " do not reconcile: " +
                  std::to_string(resolved) + " vs " +
                  std::to_string(evaluations));
    }
  }

  std::cout << "serve_smoke_gate: OK (3 jobs, "
            << context.result_misses << " optimizations, "
            << stats.followers << " follower(s), "
            << context.result_hits << " memo hit(s))\n";
  return 0;
} catch (const std::invalid_argument& err) {
  std::cerr << "error: " << err.what() << "\n";
  return 1;
}
