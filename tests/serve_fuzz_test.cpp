// Adversarial input against the serve protocol: every malformed line —
// truncated JSON, duplicate keys, megabyte fields, a 64 MiB line, invalid
// UTF-8, hostile nesting, type confusion — must come back as exactly one structured
// "error" response, never a crash, and never a poisoned cache (a valid
// request afterwards still computes the right answer). A seeded mutation
// fuzzer rides on top of the fixed corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <istream>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/server.h"
#include "util/json.h"
#include "util/rng.h"

namespace sitam {
namespace {

/// Corpus of lines that must all be answered with a structured error.
std::vector<std::string> hostile_corpus() {
  std::vector<std::string> corpus = {
      // Truncated / structurally broken JSON.
      R"({"op":"opt)",
      R"({"op":"optimize","id":)",
      R"({"op":"optimize",})",
      R"([)",
      R"({)",
      R"(})",
      "",  // submit_line is never fed empty lines by serve_stream, but
           // direct clients can send one
      "null",
      "42",
      R"("just a string")",
      R"({"op":"ping"} trailing garbage)",
      // Duplicate keys (strict parser rejects outright).
      R"({"op":"ping","op":"ping"})",
      R"({"op":"optimize","id":"a","id":"b","soc":"mini5"})",
      // Type confusion and schema violations.
      R"([1,2,3])",
      R"({"op":42})",
      R"({"op":"optimize"})",
      R"({"op":"optimize","id":""})",
      R"({"op":"optimize","id":"x","wmax":0})",
      R"({"op":"optimize","id":"x","wmax":-4})",
      R"({"op":"optimize","id":"x","nr":-1})",
      R"({"op":"optimize","id":"x","parts":[]})",
      R"({"op":"optimize","id":"x","parts":[1,0]})",
      R"({"op":"optimize","id":"x","restarts":0})",
      R"({"op":"optimize","id":"x","priority":"urgent"})",
      R"({"op":"optimize","id":"x","trace":"yes"})",
      R"({"op":"optimize","id":"x","frobnicate":true})",
      R"({"op":"optimize","id":"x","soc":"mini5","soc_text":"Soc x"})",
      R"({"op":"teleport","id":"x"})",
      R"({"id":"x","soc":"mini5"})",
      R"({"op":"optimize","id":"x","wmax":99999999999999999999})",
      R"({"op":"optimize","id":"x","nr":1e99})",
      // Invalid UTF-8: overlong, unpaired surrogate, out of range, raw
      // control bytes, truncated multi-byte tail.
      std::string("{\"op\":\"ping\",\"id\":\"\xC0\x80\"}"),
      std::string("{\"op\":\"ping\",\"id\":\"\xED\xA0\x80\"}"),
      std::string("{\"op\":\"ping\",\"id\":\"\xF5\x80\x80\x80\"}"),
      std::string("{\"op\":\"ping\",\"id\":\"\x01\"}"),
      std::string("{\"op\":\"ping\",\"id\":\"\xE2\x82\"}"),
      R"({"op":"ping","id":"\ud800"})",
      R"({"op":"ping","id":"\udc00\ud800"})",
      R"({"op":"ping","id":"\uZZZZ"})",
  };

  // Oversized fields: a 1 MiB id and a 1 MiB benchmark name. The id is
  // rejected by the length bound before it can be echoed into responses.
  corpus.push_back(R"({"op":"optimize","id":")" + std::string(1 << 20, 'a') +
                   R"("})");
  corpus.push_back(R"({"op":"optimize","id":"x","soc":")" +
                   std::string(1 << 20, 'b') + R"("})");

  // Hostile nesting beyond kJsonMaxDepth.
  std::string deep = R"({"op":)";
  for (std::size_t i = 0; i < kJsonMaxDepth + 8; ++i) deep += '[';
  corpus.push_back(deep);
  return corpus;
}

TEST(ServeFuzz, ParseRequestRejectsTheWholeCorpusWithTypedErrors) {
  for (const std::string& line : hostile_corpus()) {
    try {
      (void)serve::parse_request(line);
      FAIL() << "accepted hostile line: " << line.substr(0, 80);
    } catch (const JsonParseError&) {
    } catch (const std::invalid_argument&) {
    }
    // Anything else (std::bad_alloc, logic_error, segfault) fails the test.
  }
}

TEST(ServeFuzz, HostileLinesBecomeErrorResponsesAndNeverPoisonTheCache) {
  std::mutex mutex;
  std::vector<std::string> lines;
  serve::ServerOptions options;
  options.threads = 2;
  options.progress = false;
  serve::JobServer server(options, [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  });

  const std::vector<std::string> corpus = hostile_corpus();
  for (const std::string& line : corpus) {
    EXPECT_TRUE(server.submit_line(line));
  }
  server.drain();
  {
    const std::lock_guard<std::mutex> lock(mutex);
    ASSERT_EQ(lines.size(), corpus.size());
    for (const std::string& line : lines) {
      const JsonValue root = parse_json(line);  // responses stay valid JSON
      EXPECT_EQ(root.find("type")->as_string(), "error") << line;
      // Oversized request fields must not be amplified back out.
      EXPECT_LT(line.size(), std::size_t{4096}) << line.substr(0, 120);
    }
  }
  EXPECT_EQ(server.stats().malformed + server.stats().failed,
            static_cast<std::int64_t>(corpus.size()));

  // The server is still healthy and its caches unpoisoned: a real request
  // completes and reports sane numbers.
  ASSERT_TRUE(server.submit_line(
      R"({"op":"optimize","id":"ok","soc":"mini5","wmax":4,"nr":300})"));
  server.drain();
  std::string result;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    for (const std::string& line : lines) {
      if (line.find("\"type\":\"result\"") != std::string::npos) result = line;
    }
  }
  ASSERT_FALSE(result.empty());
  const JsonValue root = parse_json(result);
  EXPECT_GT(root.find("t_soc")->as_int(), 0);
  EXPECT_EQ(server.stats().completed, 1);
  EXPECT_EQ(server.context_stats().result_misses, 1);
}

/// The one response a fresh server gives to `line`.
std::string only_response(const std::string& line) {
  std::mutex mutex;
  std::vector<std::string> lines;
  serve::ServerOptions options;
  options.threads = 1;
  options.progress = false;
  serve::JobServer server(options, [&](const std::string& out) {
    const std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(out);
  });
  EXPECT_TRUE(server.submit_line(line));
  server.drain();
  const std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(lines.size(), 1u) << line.substr(0, 120);
  return lines.empty() ? std::string() : lines.front();
}

/// `line` parses, and `over` is answered with an error envelope whose
/// message is exactly `message`.
void expect_limit(const std::string& line, const std::string& over,
                  const std::string& message) {
  EXPECT_NO_THROW((void)serve::parse_request(line)) << line;
  const JsonValue error = parse_json(only_response(over));
  EXPECT_EQ(error.find("type")->as_string(), "error") << over;
  EXPECT_EQ(error.find("id"), nullptr) << over;
  EXPECT_EQ(error.find("error")->as_string(), message) << over;
}

/// `[1, 1, ...]` with `n` entries.
std::string ones(std::size_t n) {
  std::string list = "[";
  for (std::size_t i = 0; i < n; ++i) list += i == 0 ? "1" : ",1";
  return list + "]";
}

TEST(ServeFuzz, PatternCountOverItsLimitIsRejected) {
  const std::string head = R"({"op":"optimize","id":"x","soc":"d695","nr":)";
  expect_limit(head + std::to_string(serve::kMaxPatternCount) + "}",
               head + std::to_string(serve::kMaxPatternCount + 1) + "}",
               "field 'nr' exceeds its limit of " +
                   std::to_string(serve::kMaxPatternCount));
}

TEST(ServeFuzz, RestartsOverTheirLimitAreRejected) {
  const std::string head =
      R"({"op":"optimize","id":"x","soc":"d695","restarts":)";
  expect_limit(head + std::to_string(serve::kMaxRestarts) + "}",
               head + std::to_string(serve::kMaxRestarts + 1) + "}",
               "field 'restarts' exceeds its limit of " +
                   std::to_string(serve::kMaxRestarts));
}

TEST(ServeFuzz, WidthsOverTheirLimitsAreRejected) {
  const std::string head = R"({"op":"sweep","id":"x","soc":"d695","widths":)";
  const std::string limit = std::to_string(serve::kMaxWidth);
  const std::string over = std::to_string(serve::kMaxWidth + 1);
  expect_limit(head + ones(serve::kMaxWidthCount) + "}",
               head + ones(serve::kMaxWidthCount + 1) + "}",
               "field 'widths' exceeds its limit of " +
                   std::to_string(serve::kMaxWidthCount) + " entries");
  expect_limit(head + "[8," + limit + "]}", head + "[8," + over + "]}",
               "field 'widths' exceeds its limit of " + limit);
  const std::string wmax = R"({"op":"optimize","id":"x","wmax":)";
  expect_limit(wmax + limit + "}", wmax + over + "}",
               "field 'wmax' exceeds its limit of " + limit);
}

TEST(ServeFuzz, PartsOverTheirLimitsAreRejected) {
  const std::string head = R"({"op":"sweep","id":"x","soc":"d695","parts":)";
  const std::string limit = std::to_string(serve::kMaxParts);
  expect_limit(head + ones(serve::kMaxPartsCount) + "}",
               head + ones(serve::kMaxPartsCount + 1) + "}",
               "field 'parts' exceeds its limit of " +
                   std::to_string(serve::kMaxPartsCount) + " entries");
  expect_limit(head + "[1," + limit + "]}",
               head + "[1," + std::to_string(serve::kMaxParts + 1) + "]}",
               "field 'parts' exceeds its limit of " + limit);
}

/// An input stream of one `length`-byte line followed by `tail`, produced
/// chunk by chunk so the long line never exists in memory as one string.
class LongLineBuffer : public std::streambuf {
 public:
  LongLineBuffer(std::size_t length, std::string tail)
      : remaining_(length), tail_(std::move(tail)), chunk_(1 << 16, 'x') {}

 protected:
  int_type underflow() override {
    if (remaining_ > 0) {
      const std::size_t n = std::min(remaining_, chunk_.size());
      remaining_ -= n;
      setg(chunk_.data(), chunk_.data(), chunk_.data() + n);
    } else if (!tail_served_) {
      tail_served_ = true;
      setg(tail_.data(), tail_.data(), tail_.data() + tail_.size());
    } else {
      return traits_type::eof();
    }
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::size_t remaining_;
  std::string tail_;
  std::string chunk_;
  bool tail_served_ = false;
};

TEST(ServeFuzz, OverlongLineIsRejectedAndServingGoesOn) {
  LongLineBuffer buffer(std::size_t{64} << 20,
                        "\n" R"({"op":"ping"})" "\n");
  std::istream in(&buffer);
  std::ostringstream out;
  serve::ServerOptions options;
  options.threads = 1;
  options.progress = false;
  EXPECT_EQ(serve::serve_stream(in, out, options), 0);

  std::vector<std::string> lines;
  std::istringstream responses(out.str());
  for (std::string line; std::getline(responses, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u);
  const JsonValue error = parse_json(lines[0]);
  EXPECT_EQ(error.find("type")->as_string(), "error");
  EXPECT_NE(error.find("error")->as_string().find("exceeds"),
            std::string::npos);
  EXPECT_EQ(lines[1], R"({"type":"pong"})");
}

TEST(ServeFuzz, SeededMutationsNeverCrashTheServer) {
  std::mutex mutex;
  std::vector<std::string> lines;
  serve::ServerOptions options;
  options.threads = 2;
  options.progress = false;
  serve::JobServer server(options, [&](const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex);
    lines.push_back(line);
  });

  const std::string seed_line =
      R"({"op":"optimize","id":"m","soc":"mini5","wmax":4,"nr":300})";
  Rng rng(0xF022ULL);
  for (int round = 0; round < 300; ++round) {
    std::string mutated = seed_line;
    const int edits = 1 + static_cast<int>(rng.below(4));
    for (int e = 0; e < edits; ++e) {
      const auto at = static_cast<std::size_t>(rng.below(mutated.size()));
      switch (rng.below(3)) {
        case 0:
          mutated[at] = static_cast<char>(rng.below(256));
          break;
        case 1:
          mutated.erase(at, 1);
          break;
        default:
          mutated.insert(at, 1, static_cast<char>(rng.below(128)));
          break;
      }
      if (mutated.empty()) mutated = std::string(1, '{');
    }
    // Cost guard: a digit edit can turn nr=300 into nr=999300. Mutants
    // that stay valid but grew expensive still exercised the parser; only
    // cheap ones are actually run.
    try {
      const serve::Request probe = serve::parse_request(mutated);
      if ((probe.op == serve::RequestOp::kOptimize ||
           probe.op == serve::RequestOp::kSweep) &&
          (probe.pattern_count > 5000 || probe.restarts > 8 ||
           probe.widths.front() > 64)) {
        continue;
      }
    } catch (const std::exception&) {
      // Unparseable mutants are exactly what the server must survive.
    }
    EXPECT_TRUE(server.submit_line(mutated));
  }
  server.drain();

  // Every response (errors, and acks/results for mutants that stayed
  // valid) must itself be well-formed JSON.
  const std::lock_guard<std::mutex> lock(mutex);
  for (const std::string& line : lines) {
    EXPECT_NO_THROW((void)parse_json(line)) << line.substr(0, 120);
  }
}

}  // namespace
}  // namespace sitam
