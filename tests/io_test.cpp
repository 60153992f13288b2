// Tests for SI-test-set text serialization.
#include <gtest/gtest.h>

#include "interconnect/terminal_space.h"
#include "pattern/generator.h"
#include "sitest/io.h"
#include "soc/benchmarks.h"
#include "util/rng.h"

namespace sitam {
namespace {

TEST(TestSetIo, RoundTrips) {
  SiTestSet set;
  set.parts = 4;
  SiTestGroup g1;
  g1.label = "g1";
  g1.cores = {0, 2, 5};
  g1.patterns = 123;
  g1.raw_patterns = 4567;
  g1.power = 88;
  SiTestGroup rem;
  rem.label = "rem";
  rem.cores = {0, 1, 2, 3, 4, 5};
  rem.patterns = 45;
  rem.raw_patterns = 99;
  rem.is_remainder = true;
  set.groups = {g1, rem};

  const SiTestSet parsed = test_set_from_text(test_set_to_text(set));
  EXPECT_EQ(parsed.parts, 4);
  ASSERT_EQ(parsed.groups.size(), 2u);
  EXPECT_EQ(parsed.groups[0].label, "g1");
  EXPECT_EQ(parsed.groups[0].cores, g1.cores);
  EXPECT_EQ(parsed.groups[0].patterns, 123);
  EXPECT_EQ(parsed.groups[0].raw_patterns, 4567);
  EXPECT_EQ(parsed.groups[0].power, 88);
  EXPECT_FALSE(parsed.groups[0].is_remainder);
  EXPECT_TRUE(parsed.groups[1].is_remainder);
  EXPECT_EQ(parsed.groups[1].cores.size(), 6u);
}

TEST(TestSetIo, RoundTripsRealGrouping) {
  const Soc soc = load_benchmark("p34392");
  const TerminalSpace ts(soc);
  Rng rng(9);
  const auto patterns =
      generate_random_patterns(ts, 2000, RandomPatternConfig{}, rng);
  const SiTestSet set = build_si_test_set(patterns, ts, 4, GroupingConfig{});
  const SiTestSet parsed = test_set_from_text(test_set_to_text(set));
  EXPECT_EQ(parsed.parts, set.parts);
  ASSERT_EQ(parsed.groups.size(), set.groups.size());
  EXPECT_EQ(parsed.total_patterns(), set.total_patterns());
  EXPECT_EQ(parsed.total_raw_patterns(), set.total_raw_patterns());
}

TEST(TestSetIo, ParserRejectsMalformedInput) {
  EXPECT_THROW((void)test_set_from_text(""), std::runtime_error);
  EXPECT_THROW((void)test_set_from_text("nope\n"), std::runtime_error);
  EXPECT_THROW((void)test_set_from_text("SiTestSet parts=1 groups=1\n"),
               std::runtime_error);  // group count mismatch
  EXPECT_THROW(
      (void)test_set_from_text("SiTestSet parts=1 groups=1\n"
                               "group g1 remainder=0 patterns=1 raw=1 "
                               "power=0\n"),
      std::runtime_error);  // missing cores=
}

}  // namespace
}  // namespace sitam
