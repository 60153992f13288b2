// Tests for the vertical SI compaction engines (§3): soundness (coverage of
// every original pattern), bus-line conflict handling, determinism, the
// greedy-vs-first-fit comparison the paper alludes to, and the edges of the
// staged 64-class block kernel (block and stage boundaries, bus drivers,
// wide buses, the declared terminal space) against the sparse reference
// sweep (tests/compaction_oracle.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "compaction_oracle.h"
#include "interconnect/terminal_space.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "soc/benchmarks.h"
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

TEST(CompactGreedy, EmptyInput) {
  const auto result = compact_greedy({}, 10, 4);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(result.stats.original_count, 0u);
  EXPECT_EQ(result.stats.compacted_count, 0u);
}

TEST(CompactGreedy, SinglePatternPassesThrough) {
  const std::vector<SiPattern> input = {make({{1, SigValue::kRise}})};
  const auto result = compact_greedy(input, 10, 4);
  ASSERT_EQ(result.patterns.size(), 1u);
  EXPECT_EQ(result.patterns[0], input[0]);
}

TEST(CompactGreedy, MergesCompatiblePatterns) {
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}),
      make({{1, SigValue::kFall}}),
      make({{2, SigValue::kStable0}}),
  };
  const auto result = compact_greedy(input, 10, 4);
  ASSERT_EQ(result.patterns.size(), 1u);
  EXPECT_EQ(result.patterns[0].care_count(), 3);
}

TEST(CompactGreedy, KeepsConflictingPatternsApart) {
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}),
      make({{0, SigValue::kFall}}),
      make({{0, SigValue::kStable1}}),
  };
  const auto result = compact_greedy(input, 10, 4);
  EXPECT_EQ(result.patterns.size(), 3u);
}

TEST(CompactGreedy, BusConflictPreventsMerge) {
  // Same bus line from different core boundaries: never compacted (§3).
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}, {{2, 0}}),
      make({{1, SigValue::kFall}}, {{2, 1}}),
  };
  const auto result = compact_greedy(input, 10, 4);
  EXPECT_EQ(result.patterns.size(), 2u);
}

TEST(CompactGreedy, BusSameDriverMerges) {
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}, {{2, 0}}),
      make({{1, SigValue::kFall}}, {{2, 0}}),
  };
  const auto result = compact_greedy(input, 10, 4);
  EXPECT_EQ(result.patterns.size(), 1u);
}

TEST(CompactGreedy, GreedyIsOrderSensitiveButSound) {
  // a conflicts with b on t0; c is compatible with both. Greedy seeded at a
  // absorbs c; b stays alone.
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}),
      make({{0, SigValue::kFall}}),
      make({{1, SigValue::kRise}}),
  };
  const auto result = compact_greedy(input, 10, 4);
  ASSERT_EQ(result.patterns.size(), 2u);
  EXPECT_EQ(result.patterns[0].care_count(), 2);  // a + c
  EXPECT_EQ(result.patterns[1].care_count(), 1);  // b
}

TEST(CompactGreedy, OutOfRangeTerminalThrows) {
  const std::vector<SiPattern> input = {make({{99, SigValue::kRise}})};
  EXPECT_THROW((void)compact_greedy(input, 10, 4), std::out_of_range);
}

TEST(CompactGreedy, OutOfRangeBusLineThrows) {
  const std::vector<SiPattern> input = {
      make({{0, SigValue::kRise}}, {{9, 0}})};
  EXPECT_THROW((void)compact_greedy(input, 10, 4), std::out_of_range);
}

TEST(CompactGreedy, NegativeDimensionsThrow) {
  EXPECT_THROW((void)compact_greedy({}, -1, 4), std::invalid_argument);
  EXPECT_THROW((void)compact_first_fit({}, 4, -1), std::invalid_argument);
}

TEST(CompactGreedyCount, ChecksMembersAndIds) {
  const std::vector<SiPattern> input = {make({{1, SigValue::kRise}}),
                                        make({{12, SigValue::kFall}}),
                                        make({{2, SigValue::kFall}})};
  const std::vector<std::uint32_t> good = {2, 0};
  EXPECT_EQ(compact_greedy_count(input, good, 10, 4), 1u);
  EXPECT_EQ(compact_greedy_count(input, {}, 10, 4), 0u);
  // Pattern 1 is outside the terminal space only if it is a member.
  const std::vector<std::uint32_t> with_bad = {0, 1};
  EXPECT_THROW((void)compact_greedy_count(input, with_bad, 10, 4),
               std::out_of_range);
  const std::vector<std::uint32_t> outside = {0, 3};
  EXPECT_THROW((void)compact_greedy_count(input, outside, 10, 4),
               std::out_of_range);
  EXPECT_THROW((void)compact_greedy_count(input, good, -1, 4),
               std::invalid_argument);
}

TEST(CompactGreedy, InvalidThreadCountThrows) {
  CompactionConfig config;
  config.threads = 0;
  EXPECT_THROW((void)compact_greedy({}, 4, 4, config), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Block-kernel edge cases, each checked byte for byte against the sparse
// reference sweep.
// ---------------------------------------------------------------------------

constexpr SigValue kCareValues[] = {SigValue::kStable0, SigValue::kStable1,
                                    SigValue::kRise, SigValue::kFall};

/// compact_greedy must equal the reference sweep; returns the class count.
std::size_t expect_matches_reference(const std::vector<SiPattern>& input,
                                     int total_terminals, int bus_width) {
  const auto kernel = compact_greedy(input, total_terminals, bus_width);
  const auto reference =
      testing::compact_greedy_reference(input, total_terminals, bus_width);
  EXPECT_EQ(kernel.patterns, reference.patterns);
  EXPECT_EQ(first_uncovered(input, kernel.patterns), -1);
  return kernel.patterns.size();
}

/// Base-4 digits of the seeds of exact_class_input: up to 4^6 = 4096
/// pairwise-conflicting classes.
constexpr int kSeedDigits = 6;

/// `classes` pairwise-conflicting seeds (the base-4 digits of k on
/// terminals 0..kSeedDigits-1), then fillers that each agree with some seed
/// on a few digits and add a private terminal. A filler fits its seed's
/// class and often earlier ones, so fillers spread across blocks but never
/// open a class. With `bus_width` > 0 each seed also drives line
/// k % bus_width from driver k % 3 (fillers use no bus line), so every
/// class holds bus rows too.
std::vector<SiPattern> exact_class_input(int classes, Rng& rng,
                                         int bus_width = 0) {
  std::vector<SiPattern> input;
  for (int k = 0; k < classes; ++k) {
    SiPattern p;
    for (int d = 0, rest = k; d < kSeedDigits; ++d, rest /= 4) {
      p.set(d, kCareValues[rest % 4]);
    }
    if (bus_width > 0) p.set_bus(k % bus_width, k % 3);
    input.push_back(p);
  }
  for (int f = 0; f < 3 * classes; ++f) {
    const int k =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(classes)));
    SiPattern p;
    for (int d = 0, rest = k; d < kSeedDigits; ++d, rest /= 4) {
      if (rng.below(2) == 0) p.set(d, kCareValues[rest % 4]);
    }
    p.set(kSeedDigits + f, kCareValues[rng.below(4)]);
    input.push_back(p);
  }
  return input;
}

TEST(BlockKernel, ClassCountsAroundBlockBoundaries) {
  // Around one, two, four and eight blocks: the kernel probes strips of
  // four blocks, the last one partly open, so 255/256/257 and 511/512/513
  // classes fill a strip, end it or open the next one.
  Rng rng(0xb10c5ULL);
  for (const int classes :
       {63, 64, 65, 128, 129, 255, 256, 257, 511, 512, 513}) {
    SCOPED_TRACE(classes);
    const auto input = exact_class_input(classes, rng);
    EXPECT_EQ(expect_matches_reference(input, kSeedDigits + 3 * classes, 0),
              static_cast<std::size_t>(classes));
  }
}

TEST(BlockKernel, ClassCountsAroundStageBoundaries) {
  // One class below, at and one above the first three stage boundaries:
  // the candidates that stage 0 (and then 1, 2) rejects once it is full go
  // on to the next stage, in order, which must give the serial sweep's
  // classes, byte for byte, bus rows included.
  Rng rng(0x57a9eULL);
  constexpr int kStage = static_cast<int>(kCompactionStageClasses);
  for (const int boundary : {kStage, 2 * kStage, 3 * kStage}) {
    for (const int classes : {boundary - 1, boundary, boundary + 1}) {
      SCOPED_TRACE(classes);
      const auto input = exact_class_input(classes, rng, 8);
      EXPECT_EQ(expect_matches_reference(input, kSeedDigits + 3 * classes, 8),
                static_cast<std::size_t>(classes));
    }
  }
}

TEST(BlockKernel, AllConflictingSetFillsStageZeroAndForwardsTheRest) {
  // No two patterns merge (distinct base-4 codes, and each drives bus line
  // 5 from its own driver): stage 0 opens its classes for the first
  // patterns, then forwards every later one, and so does each later stage.
  std::vector<SiPattern> input;
  const int count = static_cast<int>(2 * kCompactionStageClasses) + 100;
  for (int i = 0; i < count; ++i) {
    SiPattern p;
    for (int d = 0, rest = i; d < kSeedDigits; ++d, rest /= 4) {
      p.set(d, kCareValues[rest % 4]);
    }
    p.set_bus(5, i);
    input.push_back(p);
  }
  EXPECT_EQ(expect_matches_reference(input, kSeedDigits, 8),
            static_cast<std::size_t>(count));
}

TEST(BlockKernel, FewOpenBlocksProbeOnePartlyOpenStrip) {
  // Dense §5 patterns with bus bits that compact into one to three
  // blocks: no strip of four blocks is ever full, so every candidate
  // probes one strip whose unopened columns are empty.
  const Soc soc = load_benchmark("d695");
  const TerminalSpace ts(soc);
  const RandomPatternConfig config;
  for (const std::int64_t count : {40, 300, 1200}) {
    SCOPED_TRACE(count);
    Rng rng(0x7a11ULL + static_cast<std::uint64_t>(count));
    const auto input = generate_random_patterns(ts, count, config, rng);
    const std::size_t classes =
        expect_matches_reference(input, ts.total(), config.bus_width);
    EXPECT_GE(classes, 1u);
    EXPECT_LE(classes, 3u * 64);
  }
}

TEST(BlockKernel, FullyConflictingSetKeepsEveryPattern) {
  // Every pattern drives bus line 5 from its own driver, and terminal 0
  // cycles through all four care values: no two can merge.
  std::vector<SiPattern> input;
  for (int i = 0; i < 150; ++i) {
    input.push_back(make({{0, kCareValues[i % 4]}, {1 + i, SigValue::kRise}},
                         {{5, i}}));
  }
  EXPECT_EQ(expect_matches_reference(input, 160, 8), input.size());
}

TEST(BlockKernel, MixedAndNegativeBusDriversOnAWideBus) {
  // Lines beyond 64, negative driver ids and patterns whose lines are
  // driven by different cores; sparse care bits so the bus decides most
  // conflicts.
  for (const int bus_width : {8, 64, 150}) {
    SCOPED_TRACE(bus_width);
    Rng rng(0xd21eULL + static_cast<std::uint64_t>(bus_width));
    std::vector<SiPattern> input;
    for (int i = 0; i < 600; ++i) {
      SiPattern p;
      if (rng.below(3) != 0) {
        p.set(static_cast<int>(rng.below(400)), kCareValues[rng.below(4)]);
      }
      const std::uint64_t lines = rng.below(4);
      for (std::uint64_t l = 0; l < lines; ++l) {
        const int line = static_cast<int>(
            rng.below(static_cast<std::uint64_t>(bus_width)));
        const int driver = static_cast<int>(rng.below(5)) - 2;  // -2..2
        bool taken = false;  // one driver per line within a pattern
        for (const BusBit& b : p.bus_bits()) taken |= b.line == line;
        if (!taken) p.set_bus(line, driver);
      }
      input.push_back(p);
    }
    const std::size_t classes =
        expect_matches_reference(input, 400, bus_width);
    EXPECT_GT(classes, 1u);
    EXPECT_LT(classes, input.size());
  }
}

TEST(BlockKernel, AllDontCarePatterns) {
  // Empty patterns fit every class: alone they make one empty class, and
  // mixed in they join class 0.
  const std::vector<SiPattern> empty(70);
  EXPECT_EQ(expect_matches_reference(empty, 10, 4), 1u);
  std::vector<SiPattern> mixed = {
      make({{0, SigValue::kRise}}), SiPattern{}, make({{0, SigValue::kFall}}),
      SiPattern{}, make({}, {{1, 3}}), SiPattern{}};
  EXPECT_EQ(expect_matches_reference(mixed, 10, 4), 2u);
  EXPECT_EQ(expect_matches_reference(mixed, 1, 2), 2u);  // tight bounds
}

TEST(BlockKernel, OutputIndependentOfDeclaredTerminalSpace) {
  const Soc soc = load_benchmark("p34392");
  const TerminalSpace ts(soc);
  Rng rng(0x5bace);
  const RandomPatternConfig config;
  const auto patterns = generate_random_patterns(ts, 1500, config, rng);
  int max_id = 0;
  for (const SiPattern& p : patterns) {
    if (!p.assignments().empty()) {
      max_id = std::max(max_id, p.assignments().back().first);
    }
  }
  const auto tight = compact_greedy(patterns, max_id + 1, config.bus_width);
  const auto huge = compact_greedy(patterns, 1 << 24, config.bus_width);
  EXPECT_EQ(tight.patterns, huge.patterns);
  EXPECT_EQ(compact_first_fit(patterns, max_id + 1, config.bus_width).patterns,
            compact_first_fit(patterns, 1 << 24, config.bus_width).patterns);
  // One below the largest id is out of range.
  EXPECT_THROW((void)compact_greedy(patterns, max_id, config.bus_width),
               std::out_of_range);
}

TEST(BlockKernel, OutOfRangeIdsThrowInInputOrder) {
  // The first bad id in input order wins: a terminal before a later
  // pattern's bus line, and within a pattern terminals before bus lines.
  const std::vector<SiPattern> input = {
      make({{1, SigValue::kRise}}),
      make({{12, SigValue::kRise}}, {{9, 0}}),
      make({{0, SigValue::kRise}}, {{7, 0}}),
  };
  for (const bool first_fit : {false, true}) {
    try {
      (void)(first_fit ? compact_first_fit(input, 10, 4)
                       : compact_greedy(input, 10, 4));
      ADD_FAILURE() << "no throw";
    } catch (const std::out_of_range& e) {
      EXPECT_STREQ(e.what(),
                   "compaction: terminal id 12 outside declared terminal "
                   "space");
    }
  }
  const std::vector<SiPattern> bus_first = {
      make({{0, SigValue::kRise}}, {{9, 0}}),
      make({{12, SigValue::kRise}}),
  };
  try {
    (void)compact_greedy(bus_first, 10, 4);
    ADD_FAILURE() << "no throw";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "compaction: bus line 9 outside declared bus width");
  }
}

TEST(FirstUncovered, DetectsMissingPattern) {
  const std::vector<SiPattern> original = {
      make({{0, SigValue::kRise}}),
      make({{1, SigValue::kFall}}),
  };
  const std::vector<SiPattern> compacted = {make({{0, SigValue::kRise}})};
  EXPECT_EQ(first_uncovered(original, compacted), 1);
}

TEST(FirstUncovered, DetectsBusMismatch) {
  const std::vector<SiPattern> original = {
      make({{0, SigValue::kRise}}, {{1, 0}})};
  const std::vector<SiPattern> wrong_driver = {
      make({{0, SigValue::kRise}}, {{1, 2}})};
  EXPECT_EQ(first_uncovered(original, wrong_driver), 0);
}

TEST(FirstUncovered, DirectVerdicts) {
  const std::vector<SiPattern> compacted = {
      make({{0, SigValue::kRise}, {1, SigValue::kStable0}}, {{2, 7}})};
  // Covered: exact copy, signal subset, bus subset.
  EXPECT_EQ(first_uncovered(compacted, compacted), -1);
  const std::vector<SiPattern> subsets = {
      make({{0, SigValue::kRise}}),
      make({{1, SigValue::kStable0}}, {{2, 7}}),
      make({}, {{2, 7}}),
  };
  EXPECT_EQ(first_uncovered(subsets, compacted), -1);
  // Uncovered, one reason each: flipped value, transition vs stable,
  // care bit outside the compacted pattern, unoccupied bus line, occupied
  // bus line with the wrong driver core.
  const std::vector<SiPattern> uncovered = {
      make({{0, SigValue::kFall}}),
      make({{1, SigValue::kRise}}),
      make({{2, SigValue::kStable0}}),
      make({}, {{3, 7}}),
      make({}, {{2, 6}}),
  };
  for (std::size_t i = 0; i < uncovered.size(); ++i) {
    EXPECT_EQ(first_uncovered({&uncovered[i], 1}, compacted), 0)
        << "case " << i;
  }
  EXPECT_EQ(first_uncovered(uncovered, compacted), 0);
}

// ---------------------------------------------------------------------------
// Property sweeps over realistic random workloads.
// ---------------------------------------------------------------------------

struct CompactionCase {
  const char* soc;
  std::int64_t count;
  std::uint64_t seed;
};

class CompactionPropertyTest
    : public ::testing::TestWithParam<CompactionCase> {};

TEST_P(CompactionPropertyTest, GreedyIsSoundAndCompacts) {
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);

  const auto result = compact_greedy(patterns, ts.total(), config.bus_width);
  EXPECT_EQ(result.stats.original_count, patterns.size());
  EXPECT_EQ(result.stats.compacted_count, result.patterns.size());
  EXPECT_LE(result.patterns.size(), patterns.size());
  // Soundness: every original pattern is contained in some compacted one.
  EXPECT_EQ(first_uncovered(patterns, result.patterns), -1);
  // Compacted patterns are pairwise *incompatible* with the greedy seed
  // order property: each pattern was rejected by all earlier accumulators.
  // (Weaker check: meaningful compaction happened on realistic workloads.)
  if (param.count >= 1000) {
    EXPECT_LT(result.patterns.size(), patterns.size() / 2);
  }
}

TEST_P(CompactionPropertyTest, FirstFitIsSoundAndNoWorseThanTwiceGreedy) {
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);

  const auto greedy = compact_greedy(patterns, ts.total(), config.bus_width);
  const auto first_fit =
      compact_first_fit(patterns, ts.total(), config.bus_width);
  EXPECT_EQ(first_uncovered(patterns, first_fit.patterns), -1);
  // §3: the greedy heuristic achieves similar compaction ratios to the
  // clique-covering approximation. "Similar" = within 2x either way here.
  EXPECT_LE(first_fit.patterns.size(), 2 * greedy.patterns.size());
  EXPECT_LE(greedy.patterns.size(), 2 * first_fit.patterns.size());
}

TEST_P(CompactionPropertyTest, PackedSweepMatchesReferenceByteForByte) {
  // The block kernel is an acceleration of the seed sweep, not a
  // re-derivation: its output must be *equal*, pattern for pattern.
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);
  const auto packed = compact_greedy(patterns, ts.total(), config.bus_width);
  const auto reference =
      testing::compact_greedy_reference(patterns, ts.total(), config.bus_width);
  EXPECT_EQ(packed.patterns, reference.patterns);
}

TEST_P(CompactionPropertyTest, FirstFitMatchesSparseOracle) {
  // Welsh-Powell first-fit spelled out on sparse patterns: densest first
  // (stable), each into the first class it is compatible with.
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);
  std::vector<std::size_t> order(patterns.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto density = [&patterns](std::size_t i) {
    return patterns[i].care_count() +
           static_cast<int>(patterns[i].bus_bits().size());
  };
  std::stable_sort(order.begin(), order.end(),
                   [&density](std::size_t a, std::size_t b) {
                     return density(a) > density(b);
                   });
  std::vector<SiPattern> classes;
  for (const std::size_t i : order) {
    bool placed = false;
    for (SiPattern& cls : classes) {
      if (cls.try_absorb(patterns[i])) {
        placed = true;
        break;
      }
    }
    if (!placed) classes.push_back(patterns[i]);
  }
  EXPECT_EQ(compact_first_fit(patterns, ts.total(), config.bus_width).patterns,
            classes);
}

TEST_P(CompactionPropertyTest, CountMatchesGreedyOnAnyMemberList) {
  // The count entry is the sweep without materialize(): over every pattern
  // and over a member list (every third pattern, in order), it equals the
  // size of compact_greedy on those patterns.
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);
  std::vector<std::uint32_t> all(patterns.size());
  std::iota(all.begin(), all.end(), std::uint32_t{0});
  EXPECT_EQ(
      compact_greedy_count(patterns, all, ts.total(), config.bus_width),
      compact_greedy(patterns, ts.total(), config.bus_width).patterns.size());

  std::vector<std::uint32_t> thirds;
  std::vector<SiPattern> copied;
  for (std::uint32_t i = 1; i < patterns.size(); i += 3) {
    thirds.push_back(i);
    copied.push_back(patterns[i]);
  }
  EXPECT_EQ(
      compact_greedy_count(patterns, thirds, ts.total(), config.bus_width),
      compact_greedy(copied, ts.total(), config.bus_width).patterns.size());
}

TEST_P(CompactionPropertyTest, GreedyIsDeterministic) {
  const CompactionCase param = GetParam();
  const Soc soc = load_benchmark(param.soc);
  const TerminalSpace ts(soc);
  Rng rng(param.seed);
  const RandomPatternConfig config;
  const auto patterns =
      generate_random_patterns(ts, param.count, config, rng);
  const auto a = compact_greedy(patterns, ts.total(), config.bus_width);
  const auto b = compact_greedy(patterns, ts.total(), config.bus_width);
  EXPECT_EQ(a.patterns, b.patterns);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, CompactionPropertyTest,
    ::testing::Values(CompactionCase{"mini5", 200, 1},
                      CompactionCase{"mini5", 2000, 2},
                      CompactionCase{"d695", 1500, 3},
                      CompactionCase{"p34392", 1500, 4},
                      CompactionCase{"p93791", 3000, 5}));

TEST(CompactionStats, RatioArithmetic) {
  CompactionStats stats;
  stats.original_count = 100;
  stats.compacted_count = 25;
  EXPECT_DOUBLE_EQ(stats.ratio(), 4.0);
  stats.compacted_count = 0;
  EXPECT_DOUBLE_EQ(stats.ratio(), 0.0);
}

}  // namespace
}  // namespace sitam
