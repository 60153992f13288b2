// Tests for src/pattern: the 5-valued alphabet, sparse SiPattern semantics,
// compatibility/merge rules (including the shared-bus constraint of §3) and
// the Table 1 rendering.
#include <gtest/gtest.h>

#include "interconnect/terminal_space.h"
#include "pattern/pattern.h"
#include "pattern/value.h"
#include "soc/benchmarks.h"

namespace sitam {
namespace {

TEST(SigValue, CompatibilityMatrix) {
  const SigValue all[] = {SigValue::kDontCare, SigValue::kStable0,
                          SigValue::kStable1, SigValue::kRise,
                          SigValue::kFall};
  for (const SigValue a : all) {
    for (const SigValue b : all) {
      const bool expected =
          a == SigValue::kDontCare || b == SigValue::kDontCare || a == b;
      EXPECT_EQ(compatible(a, b), expected);
      EXPECT_EQ(compatible(b, a), compatible(a, b)) << "symmetry";
    }
  }
}

TEST(SigValue, MergePicksCareValue) {
  EXPECT_EQ(merge(SigValue::kDontCare, SigValue::kRise), SigValue::kRise);
  EXPECT_EQ(merge(SigValue::kFall, SigValue::kDontCare), SigValue::kFall);
  EXPECT_EQ(merge(SigValue::kStable1, SigValue::kStable1),
            SigValue::kStable1);
}

TEST(SigValue, CharRendering) {
  EXPECT_EQ(to_char(SigValue::kDontCare), 'x');
  EXPECT_EQ(to_char(SigValue::kStable0), '0');
  EXPECT_EQ(to_char(SigValue::kStable1), '1');
  EXPECT_EQ(to_char(SigValue::kRise), '^');
  EXPECT_EQ(to_char(SigValue::kFall), 'v');
}

TEST(SigValue, TransitionPredicate) {
  EXPECT_TRUE(is_transition(SigValue::kRise));
  EXPECT_TRUE(is_transition(SigValue::kFall));
  EXPECT_FALSE(is_transition(SigValue::kStable0));
  EXPECT_FALSE(is_transition(SigValue::kDontCare));
}

TEST(SiPattern, SetAndGet) {
  SiPattern p;
  EXPECT_EQ(p.at(5), SigValue::kDontCare);
  p.set(5, SigValue::kRise);
  EXPECT_EQ(p.at(5), SigValue::kRise);
  EXPECT_EQ(p.care_count(), 1);
  p.set(5, SigValue::kFall);  // overwrite
  EXPECT_EQ(p.at(5), SigValue::kFall);
  EXPECT_EQ(p.care_count(), 1);
}

TEST(SiPattern, SetDontCareErases) {
  SiPattern p;
  p.set(3, SigValue::kStable1);
  p.set(3, SigValue::kDontCare);
  EXPECT_EQ(p.care_count(), 0);
  EXPECT_TRUE(p.empty());
}

TEST(SiPattern, AssignmentsStaySorted) {
  SiPattern p;
  p.set(9, SigValue::kRise);
  p.set(2, SigValue::kFall);
  p.set(5, SigValue::kStable0);
  const auto a = p.assignments();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].first, 2);
  EXPECT_EQ(a[1].first, 5);
  EXPECT_EQ(a[2].first, 9);
}

TEST(SiPattern, AssignReplacesBothLists) {
  SiPattern p;
  p.set(9, SigValue::kRise);
  p.set_bus(3, 1);
  const std::pair<int, SigValue> cares[] = {{2, SigValue::kStable0},
                                            {5, SigValue::kFall}};
  const BusBit bus[] = {{0, 4}, {7, 4}};
  p.assign(cares, bus);
  SiPattern built;
  built.set(5, SigValue::kFall);
  built.set(2, SigValue::kStable0);
  built.set_bus(7, 4);
  built.set_bus(0, 4);
  EXPECT_EQ(p, built);
}

TEST(SiPattern, AssignRejectsUnsortedDuplicateOrDontCareEntries) {
  SiPattern p;
  p.set(1, SigValue::kRise);
  const SiPattern before = p;
  const std::pair<int, SigValue> unsorted[] = {{5, SigValue::kRise},
                                               {2, SigValue::kRise}};
  const std::pair<int, SigValue> duplicate[] = {{2, SigValue::kRise},
                                                {2, SigValue::kFall}};
  const std::pair<int, SigValue> dont_care[] = {{2, SigValue::kDontCare}};
  const std::pair<int, SigValue> negative[] = {{-1, SigValue::kRise}};
  const BusBit bus_duplicate[] = {{3, 0}, {3, 0}};
  const BusBit bus_negative[] = {{-2, 0}};
  EXPECT_THROW(p.assign(unsorted, {}), std::invalid_argument);
  EXPECT_THROW(p.assign(duplicate, {}), std::invalid_argument);
  EXPECT_THROW(p.assign(dont_care, {}), std::invalid_argument);
  EXPECT_THROW(p.assign(negative, {}), std::invalid_argument);
  EXPECT_THROW(p.assign({}, bus_duplicate), std::invalid_argument);
  EXPECT_THROW(p.assign({}, bus_negative), std::invalid_argument);
  EXPECT_EQ(p, before);
}

TEST(SiPattern, NegativeTerminalThrows) {
  SiPattern p;
  EXPECT_THROW(p.set(-1, SigValue::kRise), std::invalid_argument);
}

TEST(SiPattern, BusIdempotentSameDriver) {
  SiPattern p;
  p.set_bus(4, 2);
  p.set_bus(4, 2);
  EXPECT_EQ(p.bus_bits().size(), 1u);
}

TEST(SiPattern, BusConflictingDriverThrows) {
  SiPattern p;
  p.set_bus(4, 2);
  EXPECT_THROW(p.set_bus(4, 3), std::logic_error);
}

TEST(SiPattern, CompatibleWhenDisjoint) {
  SiPattern a;
  a.set(1, SigValue::kRise);
  SiPattern b;
  b.set(2, SigValue::kFall);
  EXPECT_TRUE(SiPattern::compatible(a, b));
}

TEST(SiPattern, CompatibleWhenEqualOnOverlap) {
  SiPattern a;
  a.set(1, SigValue::kRise);
  a.set(2, SigValue::kStable0);
  SiPattern b;
  b.set(2, SigValue::kStable0);
  b.set(3, SigValue::kFall);
  EXPECT_TRUE(SiPattern::compatible(a, b));
}

TEST(SiPattern, IncompatibleOnValueConflict) {
  SiPattern a;
  a.set(2, SigValue::kRise);
  SiPattern b;
  b.set(2, SigValue::kFall);
  EXPECT_FALSE(SiPattern::compatible(a, b));
}

TEST(SiPattern, BusSameLineSameDriverCompatible) {
  SiPattern a;
  a.set_bus(7, 1);
  SiPattern b;
  b.set_bus(7, 1);
  EXPECT_TRUE(SiPattern::compatible(a, b));
}

TEST(SiPattern, BusSameLineDifferentDriverIncompatible) {
  // §3: patterns triggering the same bus line from different core
  // boundaries must not be compacted together.
  SiPattern a;
  a.set_bus(7, 1);
  SiPattern b;
  b.set_bus(7, 2);
  EXPECT_FALSE(SiPattern::compatible(a, b));
}

TEST(SiPattern, BusDifferentLinesCompatible) {
  SiPattern a;
  a.set_bus(7, 1);
  SiPattern b;
  b.set_bus(8, 2);
  EXPECT_TRUE(SiPattern::compatible(a, b));
}

TEST(SiPattern, ProbePathMatchesLinearPath) {
  // Force the binary-search branch with a large pattern and compare with
  // the semantics of the two-pointer branch.
  SiPattern big;
  for (int t = 0; t < 400; t += 2) big.set(t, SigValue::kStable0);
  SiPattern ok;
  ok.set(100, SigValue::kStable0);
  ok.set(101, SigValue::kRise);  // odd terminal: unassigned in big
  SiPattern bad;
  bad.set(100, SigValue::kRise);
  EXPECT_TRUE(SiPattern::compatible(big, ok));
  EXPECT_TRUE(SiPattern::compatible(ok, big));
  EXPECT_FALSE(SiPattern::compatible(big, bad));
  EXPECT_FALSE(SiPattern::compatible(bad, big));
}

TEST(SiPattern, TryAbsorbMergesUnion) {
  SiPattern a;
  a.set(1, SigValue::kRise);
  a.set_bus(3, 0);
  SiPattern b;
  b.set(2, SigValue::kFall);
  b.set(1, SigValue::kRise);
  b.set_bus(5, 1);
  ASSERT_TRUE(a.try_absorb(b));
  EXPECT_EQ(a.care_count(), 2);
  EXPECT_EQ(a.at(1), SigValue::kRise);
  EXPECT_EQ(a.at(2), SigValue::kFall);
  EXPECT_EQ(a.bus_bits().size(), 2u);
}

TEST(SiPattern, TryAbsorbRejectsAndLeavesUntouched) {
  SiPattern a;
  a.set(1, SigValue::kRise);
  const SiPattern snapshot = a;
  SiPattern b;
  b.set(1, SigValue::kFall);
  EXPECT_FALSE(a.try_absorb(b));
  EXPECT_EQ(a, snapshot);
}

TEST(SiPattern, CareCoresIncludeBusDrivers) {
  const Soc soc = load_benchmark("mini5");
  const TerminalSpace ts(soc);
  SiPattern p;
  p.set(ts.terminal(1, 0), SigValue::kRise);
  p.set(ts.terminal(1, 3), SigValue::kFall);
  p.set(ts.terminal(3, 2), SigValue::kStable0);
  p.set_bus(0, 4);
  const auto cores = p.care_cores(ts);
  EXPECT_EQ(cores, (std::vector<int>{1, 3, 4}));
}

TEST(SiPattern, RenderTable1Style) {
  SiPattern p;
  p.set(0, SigValue::kRise);
  p.set(2, SigValue::kStable1);
  p.set(3, SigValue::kFall);
  p.set_bus(1, 0);
  EXPECT_EQ(p.render(5, 4), "^x1vx | x1xx");
}

TEST(SiPattern, EqualityIsStructural) {
  SiPattern a;
  a.set(1, SigValue::kRise);
  SiPattern b;
  b.set(1, SigValue::kRise);
  EXPECT_EQ(a, b);
  b.set_bus(0, 0);
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace sitam
