// Tests for the packed bit-plane pattern representation (pattern/packed.h)
// behind first_uncovered(): the plane encoding separates all care values,
// accumulator absorb/contains is an exact subset check, summary folding
// beyond 64 care words stays conservative, and input validation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "pattern/packed.h"
#include "pattern/pattern.h"

namespace sitam {
namespace {

SiPattern make(std::initializer_list<std::pair<int, SigValue>> assignments,
               std::initializer_list<BusBit> bus = {}) {
  SiPattern p;
  for (const auto& [t, v] : assignments) p.set(t, v);
  for (const BusBit& b : bus) p.set_bus(b.line, b.driver_core);
  return p;
}

constexpr SigValue kCareValues[] = {SigValue::kStable0, SigValue::kStable1,
                                    SigValue::kRise, SigValue::kFall};

TEST(PlaneEncoding, DistinguishesAllCareValues) {
  // contains() compares (value, active) bit pairs, so the four care values
  // must map to four distinct pairs.
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      EXPECT_TRUE(value_plane_bit(kCareValues[a]) !=
                      value_plane_bit(kCareValues[b]) ||
                  active_plane_bit(kCareValues[a]) !=
                      active_plane_bit(kCareValues[b]))
          << a << " vs " << b;
    }
  }
}

TEST(PackedAccumulator, ContainsIsExactSubsetCheck) {
  const PackedLayout layout{128, 8};
  const std::vector<SiPattern> patterns = {
      make({{0, SigValue::kRise}, {70, SigValue::kStable0}}, {{1, 2}}),
      make({{0, SigValue::kRise}}),                  // signal subset
      make({{0, SigValue::kFall}}),                  // value mismatch
      make({{0, SigValue::kStable1}}),               // transition vs stable
      make({{0, SigValue::kRise}, {5, SigValue::kRise}}),  // extra care bit
      make({}, {{1, 2}}),                            // bus subset
      make({}, {{1, 3}}),                            // bus driver mismatch
      make({}, {{2, 2}}),                            // bus line not occupied
  };
  const PackedPatternSet set(patterns, layout);
  PackedAccumulator acc(layout);
  acc.absorb(set, 0);
  EXPECT_TRUE(acc.contains(set, 0));
  EXPECT_TRUE(acc.contains(set, 1));
  EXPECT_FALSE(acc.contains(set, 2));
  EXPECT_FALSE(acc.contains(set, 3));
  EXPECT_FALSE(acc.contains(set, 4));
  EXPECT_TRUE(acc.contains(set, 5));
  EXPECT_FALSE(acc.contains(set, 6));
  EXPECT_FALSE(acc.contains(set, 7));
}

TEST(PackedPatternSet, SummaryFoldIsConservativeBeyond64Words) {
  // Terminals 0 and 64*64 live in care words 0 and 64, which fold onto the
  // same summary bit. The fold may only produce false *overlap* claims —
  // never false disjointness — so containment must still be exact.
  constexpr int kTerminals = 64 * 65;
  const PackedLayout layout{kTerminals, 0};
  const std::vector<SiPattern> patterns = {
      make({{0, SigValue::kRise}}),
      make({{64 * 64, SigValue::kRise}}),  // same summary bit, other word
  };
  const PackedPatternSet set(patterns, layout);
  EXPECT_EQ(set.summary(0), set.summary(1));
  PackedAccumulator acc(layout);
  acc.absorb(set, 0);
  EXPECT_EQ(acc.summary(), set.summary(1));  // the fold cannot tell them apart
  EXPECT_TRUE(acc.contains(set, 0));
  EXPECT_FALSE(acc.contains(set, 1));        // the slots can
}

TEST(PackedPatternSet, ValidatesIdsAgainstLayout) {
  const std::vector<SiPattern> bad_terminal = {make({{10, SigValue::kRise}})};
  EXPECT_THROW(PackedPatternSet(bad_terminal, PackedLayout{10, 4}),
               std::out_of_range);
  const std::vector<SiPattern> bad_bus = {
      make({{0, SigValue::kRise}}, {{4, 0}})};
  EXPECT_THROW(PackedPatternSet(bad_bus, PackedLayout{10, 4}),
               std::out_of_range);
  EXPECT_THROW(PackedPatternSet({}, PackedLayout{-1, 4}),
               std::invalid_argument);
}

TEST(PackedAccumulator, EmptyLayoutAndEmptyPatternAreSafe) {
  const PackedLayout layout{0, 0};
  const std::vector<SiPattern> patterns = {SiPattern{}};
  const PackedPatternSet set(patterns, layout);
  PackedAccumulator acc(layout);
  EXPECT_TRUE(acc.contains(set, 0));
  acc.absorb(set, 0);
  EXPECT_TRUE(acc.contains(set, 0));
  EXPECT_EQ(acc.summary(), 0u);
}

}  // namespace
}  // namespace sitam
