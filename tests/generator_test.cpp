// Tests for the SI pattern generators: §5 random workload invariants,
// MA-model and reduced-MT-model pattern sets (parameterized property
// sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "interconnect/terminal_space.h"
#include "interconnect/topology.h"
#include "pattern/generator.h"
#include "pattern/raw_store.h"
#include "soc/benchmarks.h"
#include "util/rng.h"

namespace sitam {
namespace {

class RandomGeneratorTest : public ::testing::Test {
 protected:
  Soc soc_ = load_benchmark("p93791");
  TerminalSpace ts_{soc_};
};

TEST_F(RandomGeneratorTest, GeneratesRequestedCount) {
  Rng rng(1);
  const auto patterns =
      generate_random_patterns(ts_, 500, RandomPatternConfig{}, rng);
  EXPECT_EQ(patterns.size(), 500u);
}

TEST_F(RandomGeneratorTest, DeterministicGivenSeed) {
  Rng rng1(2);
  Rng rng2(2);
  const auto a = generate_random_patterns(ts_, 50, RandomPatternConfig{}, rng1);
  const auto b = generate_random_patterns(ts_, 50, RandomPatternConfig{}, rng2);
  EXPECT_EQ(a, b);
}

TEST_F(RandomGeneratorTest, EveryPatternHasExactlyOneVictim) {
  // The victim is the one terminal whose value can be any of the four
  // non-x values; aggressors are transitions, quiet fill is stable. We
  // can't separate a stable victim from quiet fill, but there must be at
  // least one care terminal and at least min_aggressors transitions or
  // spills.
  Rng rng(3);
  RandomPatternConfig config;
  const auto patterns = generate_random_patterns(ts_, 300, config, rng);
  for (const SiPattern& p : patterns) {
    EXPECT_GE(p.care_count(), 1 + config.min_aggressors);
  }
}

TEST_F(RandomGeneratorTest, ExternalCoreLimitHolds) {
  Rng rng(4);
  RandomPatternConfig config;
  config.bus_use_probability = 0.0;  // bus drivers would blur the count
  const auto patterns = generate_random_patterns(ts_, 500, config, rng);
  for (const SiPattern& p : patterns) {
    // care cores = victim core + cores of external aggressors; at most
    // 1 + max_external distinct cores.
    const auto cores = p.care_cores(ts_);
    EXPECT_LE(static_cast<int>(cores.size()),
              1 + config.max_external_aggressors);
  }
}

TEST_F(RandomGeneratorTest, LocalityWindowBoundsInternalSpread) {
  Rng rng(5);
  RandomPatternConfig config;
  config.bus_use_probability = 0.0;
  config.min_external_aggressors = 0;
  config.max_external_aggressors = 0;  // all aggressors internal
  config.locality_window = 4;
  const auto patterns = generate_random_patterns(ts_, 400, config, rng);
  for (const SiPattern& p : patterns) {
    // Single care core, all bits within a window of 2*4+1 positions.
    const auto cores = p.care_cores(ts_);
    ASSERT_EQ(cores.size(), 1u);
    int lo = ts_.total();
    int hi = -1;
    for (const auto& [t, v] : p.assignments()) {
      (void)v;
      lo = std::min(lo, t);
      hi = std::max(hi, t);
    }
    EXPECT_LE(hi - lo, 2 * config.locality_window);
  }
}

TEST_F(RandomGeneratorTest, BusProbabilityZeroMeansNoBusBits) {
  Rng rng(6);
  RandomPatternConfig config;
  config.bus_use_probability = 0.0;
  for (const SiPattern& p :
       generate_random_patterns(ts_, 200, config, rng)) {
    EXPECT_TRUE(p.bus_bits().empty());
  }
}

TEST_F(RandomGeneratorTest, BusProbabilityOneMeansAllBusBits) {
  Rng rng(7);
  RandomPatternConfig config;
  config.bus_use_probability = 1.0;
  for (const SiPattern& p :
       generate_random_patterns(ts_, 200, config, rng)) {
    EXPECT_FALSE(p.bus_bits().empty());
    EXPECT_LE(static_cast<int>(p.bus_bits().size()), config.max_aggressors);
    for (const BusBit& bit : p.bus_bits()) {
      EXPECT_GE(bit.line, 0);
      EXPECT_LT(bit.line, config.bus_width);
    }
  }
}

TEST_F(RandomGeneratorTest, BusUsageRateNearProbability) {
  Rng rng(8);
  RandomPatternConfig config;
  config.bus_use_probability = 0.5;
  const auto patterns = generate_random_patterns(ts_, 4000, config, rng);
  int with_bus = 0;
  for (const SiPattern& p : patterns) {
    if (!p.bus_bits().empty()) ++with_bus;
  }
  EXPECT_NEAR(static_cast<double>(with_bus) / 4000.0, 0.5, 0.05);
}

TEST_F(RandomGeneratorTest, BusDriverIsTheVictimCore) {
  Rng rng(9);
  RandomPatternConfig config;
  config.bus_use_probability = 1.0;
  config.min_external_aggressors = 0;
  config.max_external_aggressors = 0;
  for (const SiPattern& p :
       generate_random_patterns(ts_, 200, config, rng)) {
    const auto cores = p.care_cores(ts_);
    // All assignments on one core (no externals), so every bus driver must
    // be that same core.
    ASSERT_EQ(cores.size(), 1u);
    for (const BusBit& bit : p.bus_bits()) {
      EXPECT_EQ(bit.driver_core, cores[0]);
    }
  }
}

TEST_F(RandomGeneratorTest, RejectsBadConfig) {
  Rng rng(10);
  RandomPatternConfig config;
  config.min_aggressors = 0;
  EXPECT_THROW(
      (void)generate_random_patterns(ts_, 10, config, rng),
      std::invalid_argument);
  config = RandomPatternConfig{};
  config.max_aggressors = 1;  // < min
  EXPECT_THROW(
      (void)generate_random_patterns(ts_, 10, config, rng),
      std::invalid_argument);
  config = RandomPatternConfig{};
  config.bus_use_probability = 1.5;
  EXPECT_THROW(
      (void)generate_random_patterns(ts_, 10, config, rng),
      std::invalid_argument);
  EXPECT_THROW(
      (void)generate_random_patterns(ts_, -1, RandomPatternConfig{}, rng),
      std::invalid_argument);
}

TEST(RandomGenerator, RejectsSingleCore) {
  Soc soc;
  soc.name = "one";
  Module m;
  m.id = 1;
  m.name = "solo";
  m.inputs = 1;
  m.outputs = 8;
  m.patterns = 1;
  soc.modules = {m};
  const TerminalSpace ts(soc);
  Rng rng(11);
  EXPECT_THROW(
      (void)generate_random_patterns(ts, 10, RandomPatternConfig{}, rng),
      std::invalid_argument);
}

/// FNV-1a over every pattern's assignments and bus bits, in order.
std::uint64_t patterns_digest(const std::vector<SiPattern>& patterns) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= static_cast<std::uint64_t>(value >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const SiPattern& p : patterns) {
    mix(-1);
    for (const auto& [terminal, value] : p.assignments()) {
      mix(terminal);
      mix(static_cast<std::int64_t>(value));
    }
    mix(-2);
    for (const BusBit& bit : p.bus_bits()) {
      mix(bit.line);
      mix(bit.driver_core);
    }
  }
  return h;
}

std::uint64_t generated_digest(const char* soc_name, std::int64_t count,
                               const RandomPatternConfig& config) {
  const Soc soc = load_benchmark(soc_name);
  const TerminalSpace ts(soc);
  Rng rng(0x20070604ULL);  // SiWorkloadConfig's default seed
  return patterns_digest(generate_random_patterns(ts, count, config, rng));
}

TEST(RandomGenerator, PinnedTableWorkloads) {
  // The exact raw sets behind Tables 2 and 3 at N_r = 10 000: any change
  // in draw order or in first-write-wins shows up here.
  EXPECT_EQ(generated_digest("p34392", 10000, RandomPatternConfig{}),
            17227840453858529265ULL);
  EXPECT_EQ(generated_digest("p93791", 10000, RandomPatternConfig{}),
            3646471725985709070ULL);
}

TEST(RandomGenerator, PinnedConfigVariants) {
  // The other branches of the generator: no locality window, no quiet
  // fill, floorplan-ring externals, a bus wider than 64 lines and a
  // window wider than 64 bits.
  RandomPatternConfig no_window;
  no_window.locality_window = 0;
  RandomPatternConfig loud;
  loud.quiet_neighbors = false;
  RandomPatternConfig ring;
  ring.external_core_ring = 2;
  ring.max_external_aggressors = 4;
  ring.max_aggressors = 9;
  RandomPatternConfig wide_bus;
  wide_bus.bus_width = 70;
  wide_bus.bus_use_probability = 1.0;
  wide_bus.max_aggressors = 40;
  RandomPatternConfig wide_window;
  wide_window.locality_window = 40;
  wide_window.max_aggressors = 30;
  EXPECT_EQ(generated_digest("p93791", 2000, no_window),
            12705537112482669983ULL);
  EXPECT_EQ(generated_digest("p93791", 2000, loud),
            4954456975396766772ULL);
  EXPECT_EQ(generated_digest("p93791", 2000, ring),
            279338841025981509ULL);
  EXPECT_EQ(generated_digest("p93791", 2000, wide_bus),
            12025520657360222614ULL);
  EXPECT_EQ(generated_digest("p93791", 2000, wide_window),
            3113287677554984865ULL);
  EXPECT_EQ(generated_digest("d695", 2000, RandomPatternConfig{}),
            120064043863362381ULL);
}

TEST(RandomGenerator, StoreDrawsSortedAreTheGeneratedPatterns) {
  // draw_random_patterns writes cares in draw order; sorted per pattern
  // they are generate_random_patterns' output, element by element, for
  // any chunk size and however the draw is split into calls (one stream).
  RandomPatternConfig wide_bus;
  wide_bus.bus_width = 70;
  wide_bus.bus_use_probability = 1.0;
  wide_bus.max_aggressors = 40;
  for (const char* soc_name : {"d695", "p93791"}) {
    const Soc soc = load_benchmark(soc_name);
    const TerminalSpace ts(soc);
    for (const RandomPatternConfig& config :
         {RandomPatternConfig{}, wide_bus}) {
      Rng expected_rng(0x20070604ULL);
      const std::vector<SiPattern> expected =
          generate_random_patterns(ts, 5000, config, expected_rng);
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                      std::size_t{4096}, std::size_t{5000}}) {
        RawPatternStore store(chunk);
        Rng rng(0x20070604ULL);
        for (const std::int64_t part : {1, 4094, 905}) {
          draw_random_patterns(ts, part, config, rng, store);
        }
        store.close();
        const std::vector<PatternView> views = store.views();
        ASSERT_EQ(views.size(), expected.size());
        ASSERT_EQ(store.size(), expected.size());
        for (std::size_t i = 0; i < views.size(); ++i) {
          std::vector<std::pair<int, SigValue>> cares(
              views[i].assignments().begin(), views[i].assignments().end());
          std::sort(cares.begin(), cares.end());
          ASSERT_TRUE(std::ranges::equal(cares,
                                         expected[i].assignments()))
              << soc_name << " chunk=" << chunk << " pattern " << i;
          ASSERT_TRUE(std::ranges::equal(views[i].bus_bits(),
                                         expected[i].bus_bits()))
              << soc_name << " chunk=" << chunk << " pattern " << i;
        }
      }
      // Both generators continue the same stream.
      EXPECT_EQ(expected_rng(), [&] {
        Rng rng(0x20070604ULL);
        RawPatternStore store;
        draw_random_patterns(ts, 5000, config, rng, store);
        return rng();
      }());
    }
  }
}

TEST(RawPatternStore, ChunksPublishInOrderAndNeverMove) {
  RawPatternStore store(3);
  EXPECT_THROW(RawPatternStore(0), std::invalid_argument);
  for (int n = 0; n < 7; ++n) {
    for (int k = 0; k <= n % 3; ++k) {
      store.add_care(10 * n + k, SigValue::kRise);
    }
    if (n % 2 == 0) store.add_bus(BusBit{n, 1});
    store.end_pattern();
  }
  const RawPatternStore::Chunk* first = store.wait_chunk(0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->size(), 3u);
  store.add_care(99, SigValue::kFall);  // an unfinished pattern is dropped
  store.close();
  store.close();  // idempotent
  EXPECT_THROW(store.end_pattern(), std::logic_error);
  EXPECT_EQ(store.wait_chunk(0), first);
  ASSERT_NE(store.wait_chunk(2), nullptr);
  EXPECT_EQ(store.wait_chunk(2)->size(), 1u);
  EXPECT_EQ(store.wait_chunk(3), nullptr);
  const std::vector<PatternView> views = store.views();
  ASSERT_EQ(views.size(), 7u);
  for (int n = 0; n < 7; ++n) {
    const PatternView& p = views[static_cast<std::size_t>(n)];
    ASSERT_EQ(p.assignments().size(), static_cast<std::size_t>(n % 3 + 1));
    EXPECT_EQ(p.assignments().front().first, 10 * n);
    EXPECT_EQ(p.bus_bits().size(), n % 2 == 0 ? 1u : 0u);
  }
}

TEST(RawPatternStore, PatternsLongerThanASegmentStayContiguous) {
  // A pattern that does not fit the rest of a segment moves to a fresh
  // one, and one longer than a whole segment gets a segment of its own.
  RawPatternStore store(2);
  const std::size_t lengths[] = {RawPatternStore::kSegmentEntries - 3, 7,
                                 3 * RawPatternStore::kSegmentEntries, 1};
  for (const std::size_t length : lengths) {
    for (std::size_t k = 0; k < length; ++k) {
      store.add_care(static_cast<int>(k), SigValue::kStable1);
    }
    store.end_pattern();
  }
  store.close();
  const std::vector<PatternView> views = store.views();
  ASSERT_EQ(views.size(), std::size(lengths));
  for (std::size_t i = 0; i < views.size(); ++i) {
    const auto cares = views[i].assignments();
    ASSERT_EQ(cares.size(), lengths[i]);
    for (std::size_t k = 0; k < cares.size(); ++k) {
      ASSERT_EQ(cares[k].first, static_cast<int>(k)) << "pattern " << i;
    }
  }
}

TEST(RawPatternStore, ReleasedChunksAreRefilledByTheWriter) {
  // A chunk of 4 096 four-care patterns fills two full segments. Once its
  // reader releases it, the writer takes its segments at its next publish
  // and refills them for the chunk after, instead of allocating; the
  // released chunk reads as empty.
  constexpr std::size_t kPatterns = 4096;
  RawPatternStore store(kPatterns);
  const auto write_chunk = [&store](int base) {
    for (std::size_t n = 0; n < kPatterns; ++n) {
      for (int k = 0; k < 4; ++k) {
        store.add_care(base + k, SigValue::kStable0);
      }
      store.end_pattern();
    }
  };
  write_chunk(0);
  const RawPatternStore::Chunk* first = store.wait_chunk(0);
  ASSERT_NE(first, nullptr);
  ASSERT_EQ(RawPatternStore::kSegmentEntries, 2 * kPatterns);
  const std::pair<int, SigValue>* segments[] = {
      (*first)[0].assignments().data(),
      (*first)[kPatterns / 2].assignments().data()};
  EXPECT_EQ(segments[0] + RawPatternStore::kSegmentEntries - 4,
            (*first)[kPatterns / 2 - 1].assignments().data());
  store.release(0);
  EXPECT_TRUE(store.wait_chunk(0)->empty());
  write_chunk(100);  // its publish hands chunk 0's segments to the writer
  write_chunk(200);
  store.close();
  const RawPatternStore::Chunk* third = store.wait_chunk(2);
  ASSERT_NE(third, nullptr);
  ASSERT_EQ(third->size(), kPatterns);
  for (const std::size_t i : {std::size_t{0}, kPatterns / 2}) {
    const std::pair<int, SigValue>* data = (*third)[i].assignments().data();
    EXPECT_TRUE(data == segments[0] || data == segments[1]) << i;
    EXPECT_EQ(data->first, 200);
  }
  EXPECT_EQ(store.size(), 3 * kPatterns);
}

// ---------------------------------------------------------------------------
// MA model
// ---------------------------------------------------------------------------

class MaModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(20);
    TopologyConfig config;
    config.wires_per_link = 4;
    topo_ = generate_topology(ts_, config, rng);
  }
  Soc soc_ = load_benchmark("mini5");
  TerminalSpace ts_{soc_};
  Topology topo_;
};

TEST_F(MaModelTest, SixPatternsPerVictim) {
  const auto patterns = generate_ma_patterns(topo_, ts_, 3);
  EXPECT_EQ(patterns.size(), topo_.nets.size() * 6);
  EXPECT_EQ(ma_pattern_count(static_cast<std::int64_t>(topo_.nets.size())),
            static_cast<std::int64_t>(patterns.size()));
}

TEST_F(MaModelTest, AggressorsAllSameDirection) {
  const auto patterns = generate_ma_patterns(topo_, ts_, 2);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const int victim_terminal =
        topo_.nets[i / 6].driver_terminal;
    SigValue aggressor_dir = SigValue::kDontCare;
    for (const auto& [t, v] : patterns[i].assignments()) {
      if (t == victim_terminal) continue;
      ASSERT_TRUE(is_transition(v));
      if (aggressor_dir == SigValue::kDontCare) {
        aggressor_dir = v;
      } else {
        EXPECT_EQ(v, aggressor_dir);
      }
    }
  }
}

TEST_F(MaModelTest, CoversAllSixFaultTypes) {
  const auto patterns = generate_ma_patterns(topo_, ts_, 1);
  const int victim_terminal = topo_.nets[0].driver_terminal;
  std::map<SigValue, int> victim_values;
  for (std::size_t i = 0; i < 6; ++i) {
    ++victim_values[patterns[i].at(victim_terminal)];
  }
  EXPECT_EQ(victim_values[SigValue::kStable0], 1);  // positive glitch
  EXPECT_EQ(victim_values[SigValue::kStable1], 1);  // negative glitch
  EXPECT_EQ(victim_values[SigValue::kRise], 2);     // delay + speedup
  EXPECT_EQ(victim_values[SigValue::kFall], 2);
}

TEST_F(MaModelTest, WindowZeroMeansVictimOnly) {
  const auto patterns = generate_ma_patterns(topo_, ts_, 0);
  for (const SiPattern& p : patterns) EXPECT_EQ(p.care_count(), 1);
}

TEST_F(MaModelTest, NegativeWindowThrows) {
  EXPECT_THROW((void)generate_ma_patterns(topo_, ts_, -1),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Reduced MT model
// ---------------------------------------------------------------------------

class MtParamTest : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override {
    Rng rng(21);
    TopologyConfig config;
    config.wires_per_link = 3;
    topo_ = generate_topology(ts_, config, rng);
  }
  Soc soc_ = load_benchmark("mini5");
  TerminalSpace ts_{soc_};
  Topology topo_;
};

TEST_P(MtParamTest, PatternCountMatchesReducedMtFormula) {
  const int k = GetParam();
  const auto patterns = generate_mt_patterns(topo_, ts_, k);
  // N * 2^(2k+2) is an upper bound; interior nets with full windows hit it
  // exactly, edge nets and driver-terminal collisions generate fewer.
  const auto upper = mt_pattern_count(
      static_cast<std::int64_t>(topo_.nets.size()), k);
  EXPECT_LE(static_cast<std::int64_t>(patterns.size()), upper);
  EXPECT_GT(static_cast<std::int64_t>(patterns.size()), upper / 2);
}

TEST_P(MtParamTest, EveryPatternSpecifiesVictimAndNeighbors) {
  const int k = GetParam();
  const auto patterns = generate_mt_patterns(topo_, ts_, k);
  for (const SiPattern& p : patterns) {
    EXPECT_GE(p.care_count(), 1);
    EXPECT_LE(p.care_count(), 2 * k + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(LocalityFactors, MtParamTest,
                         ::testing::Values(0, 1, 2, 3));

TEST_F(MaModelTest, MtRejectsBadLocality) {
  EXPECT_THROW((void)generate_mt_patterns(topo_, ts_, -1),
               std::invalid_argument);
  EXPECT_THROW((void)generate_mt_patterns(topo_, ts_, 13),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Topology-derived workload
// ---------------------------------------------------------------------------

class TopologyPatternTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(50);
    TopologyConfig config;
    config.wires_per_link = 8;
    topo_ = generate_topology(ts_, config, rng);
  }
  Soc soc_ = load_benchmark("mini5");
  TerminalSpace ts_{soc_};
  Topology topo_;
};

TEST_F(TopologyPatternTest, GeneratesRequestedCount) {
  Rng rng(51);
  const auto patterns = generate_topology_patterns(
      topo_, ts_, 200, TopologyPatternConfig{}, rng);
  EXPECT_EQ(patterns.size(), 200u);
  for (const SiPattern& p : patterns) {
    // Victim + up to 2*window neighbors.
    EXPECT_GE(p.care_count(), 1);
    EXPECT_LE(p.care_count(), 2 * TopologyPatternConfig{}.window + 1);
  }
}

TEST_F(TopologyPatternTest, CrossCorePatternsOccur) {
  // Random routing interleaves cores, so some patterns must touch several
  // cores — the Fig. 1 point that makes per-core BIST insufficient.
  Rng rng(52);
  TopologyPatternConfig config;
  config.bus_use_probability = 0.0;
  const auto patterns =
      generate_topology_patterns(topo_, ts_, 300, config, rng);
  int multi_core = 0;
  for (const SiPattern& p : patterns) {
    if (p.care_cores(ts_).size() > 1) ++multi_core;
  }
  EXPECT_GT(multi_core, 50);
}

TEST_F(TopologyPatternTest, BusBitsComeFromVictimCore) {
  Rng rng(53);
  TopologyPatternConfig config;
  config.bus_use_probability = 1.0;
  const auto patterns =
      generate_topology_patterns(topo_, ts_, 100, config, rng);
  for (const SiPattern& p : patterns) {
    ASSERT_FALSE(p.bus_bits().empty());
    const int driver = p.bus_bits().front().driver_core;
    for (const BusBit& bit : p.bus_bits()) {
      EXPECT_EQ(bit.driver_core, driver);
    }
  }
}

TEST_F(TopologyPatternTest, DeterministicForSeed) {
  Rng rng1(54);
  Rng rng2(54);
  const auto a = generate_topology_patterns(topo_, ts_, 50,
                                            TopologyPatternConfig{}, rng1);
  const auto b = generate_topology_patterns(topo_, ts_, 50,
                                            TopologyPatternConfig{}, rng2);
  EXPECT_EQ(a, b);
}

TEST_F(TopologyPatternTest, RejectsBadConfig) {
  Rng rng(55);
  EXPECT_THROW((void)generate_topology_patterns(
                   topo_, ts_, -1, TopologyPatternConfig{}, rng),
               std::invalid_argument);
  TopologyPatternConfig config;
  config.aggressor_probability = 1.5;
  EXPECT_THROW(
      (void)generate_topology_patterns(topo_, ts_, 10, config, rng),
      std::invalid_argument);
  Topology empty;
  EXPECT_THROW((void)generate_topology_patterns(
                   empty, ts_, 10, TopologyPatternConfig{}, rng),
               std::invalid_argument);
}

TEST(MotivationArithmetic, Section2Example) {
  // "ten cores connect to the bus ... each core sends data to two other
  // cores ... N = 2 x 10 x 32 = 640" -> 3840 MA pairs, ~163840 reduced-MT
  // pairs at k = 3.
  const std::int64_t victims = 2 * 10 * 32;
  EXPECT_EQ(ma_pattern_count(victims), 3840);
  EXPECT_EQ(mt_pattern_count(victims, 3), 163840);
}

}  // namespace
}  // namespace sitam
