// Tests for the packed bit-plane pattern representation (pattern/packed.h):
// plane encoding round-trips, word-parallel compatibility vs the sparse
// SiPattern::compatible oracle on randomized pairs, accumulator fits/absorb/
// contains semantics on sparse and dense layouts (including the sweep-index
// fast path with its rest-of-slots walk, and the bus driver disambiguation),
// summary folding beyond 64 care words, and input validation.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "pattern/compaction.h"
#include "pattern/packed.h"
#include "pattern/pattern.h"
#include "util/rng.h"

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

/// Random pattern over `terminals` terminals and `bus_width` bus lines
/// with 1..`max_cares` care assignments; exercises all four care values
/// and multi-driver bus postfixes.
SiPattern random_pattern(Rng& rng, int terminals, int bus_width,
                         std::uint64_t max_cares = 8) {
  SiPattern p;
  const std::uint64_t cares = 1 + rng.below(max_cares);
  for (std::uint64_t a = 0; a < cares; ++a) {
    const int t = static_cast<int>(rng.below(static_cast<std::uint64_t>(terminals)));
    p.set(t, kCareValues[rng.below(4)]);
  }
  if (bus_width > 0 && rng.below(2) == 0) {
    const std::uint64_t lines = 1 + rng.below(3);
    for (std::uint64_t l = 0; l < lines; ++l) {
      const int line =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(bus_width)));
      const int driver = static_cast<int>(rng.below(3));
      bool taken = false;  // one driver per line within a single pattern
      for (const BusBit& b : p.bus_bits()) taken |= b.line == line;
      if (!taken) p.set_bus(line, driver);
    }
  }
  return p;
}

TEST(PlaneEncoding, RoundTripsAllCareValues) {
  for (const SigValue v : kCareValues) {
    const bool value = value_plane_bit(v) != 0;
    const bool active = active_plane_bit(v) != 0;
    EXPECT_EQ(decode_planes(value, active), v);
  }
}

TEST(PackedPatternSet, AccumulatorRoundTripsPatterns) {
  const PackedLayout layout{200, 8};
  const std::vector<SiPattern> patterns = {
      make({{0, SigValue::kStable0},
            {63, SigValue::kStable1},
            {64, SigValue::kRise},
            {199, SigValue::kFall}},
           {{3, 1}, {7, 1}}),
      make({{5, SigValue::kRise}}),
      SiPattern{},  // empty pattern: packs to zero slots
  };
  const PackedPatternSet set(patterns, layout);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set.slots(2).size(), 0u);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    PackedAccumulator acc(layout);
    acc.absorb(set, i);
    EXPECT_EQ(acc.to_pattern(), patterns[i]) << "pattern " << i;
  }
}

TEST(PackedPatternSet, CompatibleMatchesSparseOracleOnRandomPairs) {
  constexpr int kTerminals = 150;  // 3 signal words
  constexpr int kBusWidth = 8;
  const PackedLayout layout{kTerminals, kBusWidth};
  Rng rng(0xbead5eedULL);
  std::vector<SiPattern> patterns;
  for (int i = 0; i < 200; ++i) {
    patterns.push_back(random_pattern(rng, kTerminals, kBusWidth));
  }
  const PackedPatternSet set(patterns, layout);
  std::size_t agree_compatible = 0;
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    for (std::size_t j = i; j < patterns.size(); ++j) {
      const bool expected = SiPattern::compatible(patterns[i], patterns[j]);
      ASSERT_EQ(set.compatible(i, j), expected)
          << "pair (" << i << ", " << j << ")";
      agree_compatible += expected ? 1 : 0;
    }
  }
  // The workload must exercise both verdicts to mean anything.
  EXPECT_GT(agree_compatible, 0u);
  EXPECT_LT(agree_compatible, patterns.size() * (patterns.size() + 1) / 2);
}

TEST(PackedAccumulator, FitsMatchesSparseOracleUnderAccumulation) {
  struct LayoutCase {
    int terminals;
    int bus_width;
    std::uint64_t max_cares;
  };
  // A 3-word layout whose patterns fit the sweep record's four inlined
  // slots, and a 66-word layout with dense patterns whose slot lists
  // overflow them into the rest-of-slots walk.
  const LayoutCase cases[] = {{150, 8, 8}, {4200, 64, 40}};
  Rng rng(0xfeedc0deULL);
  for (const LayoutCase& c : cases) {
    SCOPED_TRACE(c.terminals);
    const PackedLayout layout{c.terminals, c.bus_width};
    std::vector<SiPattern> patterns;
    for (int i = 0; i < 300; ++i) {
      patterns.push_back(
          random_pattern(rng, c.terminals, c.bus_width, c.max_cares));
    }
    const PackedPatternSet set(patterns, layout);
    const PackedSweepIndex index(set);

    // Greedily accumulate into one pattern both sparsely and packed; every
    // fits() decision (both overloads) must match the sparse try_absorb.
    PackedAccumulator acc(layout);
    acc.absorb(set, 0);
    SiPattern sparse = patterns[0];
    std::size_t accepted = 0;
    std::size_t rest_walks = 0;
    for (std::size_t i = 1; i < patterns.size(); ++i) {
      const bool expected = SiPattern::compatible(sparse, patterns[i]);
      ASSERT_EQ(acc.fits(set, i), expected) << "pattern " << i;
      ASSERT_EQ(acc.fits(index, i), expected) << "pattern " << i;
      const PackedSweepIndex::Record& r = index.record(i);
      rest_walks += r.rest_begin < r.slot_end ? 1 : 0;
      if (expected) {
        ASSERT_TRUE(sparse.try_absorb(patterns[i]));
        acc.absorb(set, i);
        ++accepted;
      }
    }
    EXPECT_EQ(acc.to_pattern(), sparse);
    // Both verdicts must be exercised to mean anything.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, patterns.size() - 1);
    if (c.max_cares > 8) {
      EXPECT_GT(rest_walks, 0u);
    }
  }
}

TEST(PackedAccumulator, BusDriverDisambiguation) {
  const PackedLayout layout{64, 8};
  const std::vector<SiPattern> patterns = {
      make({{0, SigValue::kRise}}, {{2, 1}}),   // line 2 from core 1
      make({{1, SigValue::kRise}}, {{2, 1}}),   // same line, same driver
      make({{2, SigValue::kRise}}, {{2, 3}}),   // same line, other driver
      make({{3, SigValue::kRise}}, {{5, 3}}),   // disjoint line
      make({{4, SigValue::kRise}}, {{2, 3}, {5, 1}}),  // mixed drivers
  };
  const PackedPatternSet set(patterns, layout);
  const PackedSweepIndex index(set);
  EXPECT_EQ(set.uniform_driver(0), 1);
  EXPECT_EQ(set.uniform_driver(4), kMixedBusDrivers);

  PackedAccumulator acc(layout);
  acc.absorb(set, 0);
  EXPECT_TRUE(acc.fits(set, 1));   // uniform fast path: same driver
  EXPECT_FALSE(acc.fits(set, 2));  // same line, different driver
  EXPECT_TRUE(acc.fits(set, 3));   // no shared line
  EXPECT_FALSE(acc.fits(set, 4));  // mixed: line 2 collides on driver
  for (std::size_t i = 1; i < patterns.size(); ++i) {
    EXPECT_EQ(acc.fits(index, i), acc.fits(set, i)) << "pattern " << i;
  }

  // After a reset the epoch-stamped driver table must forget line 2.
  acc.reset();
  acc.absorb(set, 2);
  EXPECT_FALSE(acc.fits(set, 0));
  EXPECT_TRUE(acc.fits(set, 4));  // drivers agree on both lines now
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
  // never false disjointness — so conflicts must still be exact.
  constexpr int kTerminals = 64 * 65;
  const PackedLayout layout{kTerminals, 0};
  const std::vector<SiPattern> patterns = {
      make({{0, SigValue::kRise}}),
      make({{64 * 64, SigValue::kFall}}),  // same summary bit, no conflict
      make({{0, SigValue::kFall}}),        // true conflict with pattern 0
  };
  const PackedPatternSet set(patterns, layout);
  EXPECT_EQ(set.summary(0), set.summary(1));
  EXPECT_TRUE(set.compatible(0, 1));
  EXPECT_FALSE(set.compatible(0, 2));
  PackedAccumulator acc(layout);
  acc.absorb(set, 0);
  const PackedSweepIndex index(set);
  EXPECT_TRUE(acc.fits(set, 1));
  EXPECT_TRUE(acc.fits(index, 1));
  EXPECT_FALSE(acc.fits(set, 2));
  EXPECT_FALSE(acc.fits(index, 2));
}

TEST(PackedSweepIndex, InlinesAtMostFourSlotsAndWalksTheRest) {
  // Six care words: slots 4-5 stay out of line; fits() must still see them.
  const PackedLayout layout{64 * 6, 4};
  SiPattern dense;
  for (int w = 0; w < 6; ++w) dense.set(64 * w, SigValue::kStable1);
  const std::vector<SiPattern> patterns = {
      dense,
      make({{64 * 5, SigValue::kStable0}}),  // conflicts only in word 5
  };
  const PackedPatternSet set(patterns, layout);
  const PackedSweepIndex index(set);
  EXPECT_EQ(index.record(0).rest_begin + 2, index.record(0).slot_end);
  PackedAccumulator acc(layout);
  acc.absorb(set, 0);
  EXPECT_FALSE(acc.fits(set, 1));
  EXPECT_FALSE(acc.fits(index, 1));
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
  const PackedSweepIndex index(set);
  PackedAccumulator acc(layout);
  EXPECT_TRUE(acc.fits(set, 0));
  EXPECT_TRUE(acc.fits(index, 0));
  acc.absorb(set, 0);
  EXPECT_TRUE(acc.contains(set, 0));
  EXPECT_TRUE(acc.to_pattern().empty());
}

}  // namespace
}  // namespace sitam
