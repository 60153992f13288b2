// Deterministic pseudo-fuzzing of every text parser: random mutations of
// valid documents must either parse cleanly or throw the parser's
// documented exception type — never crash, hang, or throw something else.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "soc/benchmarks.h"
#include "soc/itc02.h"
#include "soc/parser.h"
#include "soc/writer.h"
#include "util/rng.h"

namespace sitam {
namespace {

std::string mutate(std::string text, Rng& rng) {
  const int edits = 1 + static_cast<int>(rng.below(4));
  for (int e = 0; e < edits && !text.empty(); ++e) {
    const auto pos = static_cast<std::size_t>(rng.below(text.size()));
    switch (rng.below(4)) {
      case 0:  // flip to a random printable/control char
        text[pos] = static_cast<char>(rng.uniform(9, 126));
        break;
      case 1:  // delete
        text.erase(pos, 1 + rng.below(3));
        break;
      case 2:  // duplicate a chunk
        text.insert(pos, text.substr(pos, 1 + rng.below(8)));
        break;
      default:  // insert digits / separators
        text.insert(pos, std::string(1 + rng.below(3),
                                     "0123456789 :|=@xX-"[rng.below(18)]));
        break;
    }
  }
  return text;
}

template <typename ParseFn>
void fuzz(const std::string& seed_doc, int iterations, std::uint64_t seed,
          ParseFn&& parse) {
  Rng rng(seed);
  int ok = 0;
  int rejected = 0;
  for (int i = 0; i < iterations; ++i) {
    const std::string mutated = mutate(seed_doc, rng);
    try {
      parse(mutated);
      ++ok;
    } catch (const std::runtime_error&) {
      ++rejected;  // includes SocParseError and the itc02 errors
    } catch (const std::logic_error&) {
      ++rejected;  // SITAM_CHECK / std::invalid_argument on semantic issues
    }
    // Anything else (segfault, std::bad_alloc storm, unknown type)
    // propagates and fails the test.
  }
  // Sanity: the fuzzer actually exercises both paths over the run.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(ok + rejected, 0);
}

TEST(Fuzz, SocParser) {
  const std::string doc = soc_to_text(load_benchmark("mini5"));
  fuzz(doc, 400, 1001, [](const std::string& text) {
    (void)parse_soc(text);
  });
}

TEST(Fuzz, SocParserRejectsOutOfRangeAndImplausibleCounts) {
  // Each document would once have parsed: its integer wrapped into an int
  // (4294967297 reads as 1), or its terminal count sized a prepare's
  // per-terminal tables without bound. Each must end in a typed error at
  // parse time, before any workload is prepared from it.
  const auto module = [](const std::string& body) {
    return "Soc bomb\nModule 1\nInputs 2\nOutputs 3\n" + body +
           "Patterns 10\nEnd\n";
  };
  std::string many_modules = "Soc bomb\n";
  for (int id = 1; id <= 11; ++id) {
    many_modules += "Module " + std::to_string(id) + "\nOutputs " +
                    std::to_string(kMaxModuleTerminals) + "\nEnd\n";
  }
  const std::vector<std::string> bombs = {
      module("Outputs 4294967297\n"),
      module("Inputs -4294967297\n"),
      module("Bidirs 2147483648\n"),
      module("ScanChains 4294967297\n"),
      module("ScanChains 2x4294967297\n"),
      module("ScanChains 100001x5\n"),
      "Soc bomb\nModule 4294967297\nInputs 1\nEnd\n",
      module("Outputs " + std::to_string(kMaxModuleTerminals) + "\n"),
      module("Inputs 60000\nBidirs 60000\n"),
      many_modules,
  };
  for (const std::string& doc : bombs) {
    EXPECT_THROW((void)parse_soc(doc), SocParseError) << doc;
  }
  // At the bounds, a document still parses.
  const Soc edge = parse_soc(
      "Soc edge\nModule 1\nInputs 0\nOutputs " +
      std::to_string(kMaxModuleTerminals) +
      "\nScanChains 2x2147483647\nEnd\n");
  EXPECT_EQ(edge.modules.front().outputs, kMaxModuleTerminals);
  EXPECT_EQ(edge.modules.front().scan_chains,
            (std::vector<int>{2147483647, 2147483647}));
}

TEST(Fuzz, Itc02Parser) {
  const std::string doc =
      "SocName demo\nTotalModules 2\n"
      "Module 0\n Level 0\n Inputs 1\n Outputs 1\n ScanChains 0\n"
      "Module 1\n Level 1\n Inputs 4\n Outputs 5\n Bidirs 1\n"
      " ScanChains 2 : 10 12\n TestPatterns 9\n";
  fuzz(doc, 400, 1002, [](const std::string& text) {
    (void)parse_itc02(text);
  });
}

}  // namespace
}  // namespace sitam
