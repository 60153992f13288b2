// Deterministic pseudo-fuzzing of every text parser: random mutations of
// valid documents must either parse cleanly or throw the parser's
// documented exception type — never crash, hang, or throw something else.
#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "sitest/io.h"
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
      ++rejected;  // includes SocParseError and the io/itc02 errors
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

TEST(Fuzz, TestSetParser) {
  const std::string doc =
      "SiTestSet parts=2 groups=2\n"
      "group g1 remainder=0 patterns=5 raw=9 power=3 bus=1 cores=0,1,2\n"
      "group rem remainder=1 patterns=2 raw=4 power=0 bus=0 cores=0,1,2,3\n";
  fuzz(doc, 400, 1004, [](const std::string& text) {
    (void)test_set_from_text(text);
  });
}

// ---------------------------------------------------------------------------
// Round-trip fuzzing of the sitest group I/O: any serializable test set must
// survive to_text -> from_text without losing a field. The label corpus is
// adversarial on purpose — labels that look like key=value fields must not
// shadow the real fields (a regression the positional scan in io.cpp fixes).
// ---------------------------------------------------------------------------

SiTestSet random_test_set(Rng& rng) {
  static const char* const kLabels[] = {
      "g1",          "rem",        "patterns=7",  "cores=9,9",
      "bus=1",       "remainder=", "group",       "SiTestSet",
      "power=-3",    "raw=0",      "a=b=c",       "=",
      "x,y,z",       "#comment",   "g-1_v2.final"};
  SiTestSet set;
  set.parts = 1 + static_cast<int>(rng.below(8));
  const std::uint64_t group_count = rng.below(6);
  for (std::uint64_t g = 0; g < group_count; ++g) {
    SiTestGroup group;
    group.label = kLabels[rng.below(std::size(kLabels))];
    group.is_remainder = rng.chance(0.25);
    group.patterns = static_cast<std::int64_t>(rng.below(100000));
    group.raw_patterns =
        group.patterns + static_cast<std::int64_t>(rng.below(100000));
    group.power = static_cast<std::int64_t>(rng.below(5000));
    group.uses_bus = rng.chance(0.5);
    const std::uint64_t core_count = 1 + rng.below(12);
    int core = 0;
    for (std::uint64_t c = 0; c < core_count; ++c) {
      core += 1 + static_cast<int>(rng.below(5));
      group.cores.push_back(core);
    }
    set.groups.push_back(std::move(group));
  }
  return set;
}

TEST(Fuzz, TestSetRoundTripCorpus) {
  Rng rng(0x10c0de);
  for (int i = 0; i < 300; ++i) {
    const SiTestSet original = random_test_set(rng);
    const std::string text = test_set_to_text(original);
    const SiTestSet parsed = test_set_from_text(text);
    ASSERT_EQ(parsed.parts, original.parts) << "case " << i << "\n" << text;
    ASSERT_EQ(parsed.groups.size(), original.groups.size())
        << "case " << i << "\n" << text;
    for (std::size_t g = 0; g < original.groups.size(); ++g) {
      const SiTestGroup& a = original.groups[g];
      const SiTestGroup& b = parsed.groups[g];
      ASSERT_EQ(b.label, a.label) << "case " << i << "\n" << text;
      ASSERT_EQ(b.cores, a.cores) << "case " << i << "\n" << text;
      ASSERT_EQ(b.patterns, a.patterns) << "case " << i << "\n" << text;
      ASSERT_EQ(b.raw_patterns, a.raw_patterns)
          << "case " << i << "\n" << text;
      ASSERT_EQ(b.is_remainder, a.is_remainder)
          << "case " << i << "\n" << text;
      ASSERT_EQ(b.power, a.power) << "case " << i << "\n" << text;
      ASSERT_EQ(b.uses_bus, a.uses_bus) << "case " << i << "\n" << text;
    }
    // Serialization is canonical: a second trip is byte-identical.
    ASSERT_EQ(test_set_to_text(parsed), text) << "case " << i;
  }
}

TEST(Fuzz, TestSetWriterRejectsUnserializableLabels) {
  for (const char* label : {"", "has space", "tab\there", "new\nline",
                            "trailing ", " leading"}) {
    SiTestSet set;
    set.parts = 1;
    SiTestGroup group;
    group.label = label;
    group.cores = {0};
    group.patterns = 1;
    group.raw_patterns = 1;
    set.groups.push_back(std::move(group));
    EXPECT_THROW((void)test_set_to_text(set), std::invalid_argument)
        << "label '" << label << "'";
  }
}

}  // namespace
}  // namespace sitam
