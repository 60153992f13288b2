// Tests for src/sitest: the core-level hypergraph construction and the
// two-dimensional grouping (horizontal compaction) of §3, checked against
// the direct per-grouping oracle in sitest_oracle.h.
#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "interconnect/terminal_space.h"
#include "pattern/generator.h"
#include "sitest/group.h"
#include "sitest_oracle.h"
#include "soc/benchmarks.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sitam {
namespace {

SiPattern on_cores(const TerminalSpace& ts,
                   std::initializer_list<int> cores) {
  SiPattern p;
  SigValue v = SigValue::kRise;
  for (const int core : cores) {
    p.set(ts.terminal(core, 0), v);
    v = v == SigValue::kRise ? SigValue::kFall : SigValue::kRise;
  }
  return p;
}

class SitestTest : public ::testing::Test {
 protected:
  Soc soc_ = load_benchmark("mini5");
  TerminalSpace ts_{soc_};
  GroupingConfig config_{};
};

TEST_F(SitestTest, HypergraphVertexWeightsAreWocs) {
  const std::vector<SiPattern> patterns = {on_cores(ts_, {0, 1})};
  const Hypergraph hg = build_core_hypergraph(patterns, ts_);
  ASSERT_EQ(hg.vertex_count(), soc_.core_count());
  for (int c = 0; c < soc_.core_count(); ++c) {
    EXPECT_EQ(hg.vertex_weights[static_cast<std::size_t>(c)],
              soc_.modules[static_cast<std::size_t>(c)].woc());
  }
}

TEST_F(SitestTest, HypergraphMergesIdenticalCareSets) {
  const std::vector<SiPattern> patterns = {
      on_cores(ts_, {0, 1}), on_cores(ts_, {0, 1}), on_cores(ts_, {2})};
  const Hypergraph hg = build_core_hypergraph(patterns, ts_);
  ASSERT_EQ(hg.edges.size(), 2u);
  // The {0,1} edge carries multiplicity 2.
  bool found = false;
  for (const Hyperedge& e : hg.edges) {
    if (e.pins == std::vector<int>{0, 1}) {
      EXPECT_EQ(e.weight, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(SitestTest, BusDriversAppearAsPins) {
  SiPattern p = on_cores(ts_, {0});
  p.set_bus(3, 2);
  const std::vector<SiPattern> patterns = {p};
  const Hypergraph hg = build_core_hypergraph(patterns, ts_);
  ASSERT_EQ(hg.edges.size(), 1u);
  EXPECT_EQ(hg.edges[0].pins, (std::vector<int>{0, 2}));
}

TEST_F(SitestTest, SingleGroupingIsPureVerticalCompaction) {
  // Three mutually compatible patterns (all transitions agree).
  SiPattern both;
  both.set(ts_.terminal(0, 0), SigValue::kRise);
  both.set(ts_.terminal(1, 0), SigValue::kRise);
  SiPattern first;
  first.set(ts_.terminal(0, 0), SigValue::kRise);
  SiPattern second;
  second.set(ts_.terminal(1, 0), SigValue::kRise);
  const std::vector<SiPattern> patterns = {first, second, both};
  const SiTestSet set = build_si_test_set(patterns, ts_, 1, config_);
  ASSERT_EQ(set.groups.size(), 1u);
  EXPECT_EQ(set.parts, 1);
  EXPECT_FALSE(set.groups[0].is_remainder);
  // All cores are loaded by every pattern in the 1-group case.
  EXPECT_EQ(static_cast<int>(set.groups[0].cores.size()),
            soc_.core_count());
  EXPECT_EQ(set.groups[0].raw_patterns, 3);
  // The three patterns are mutually compatible -> compacted to one.
  EXPECT_EQ(set.groups[0].patterns, 1);
}

TEST_F(SitestTest, EmptyPatternSetGivesEmptyTestSet) {
  const SiTestSet set = build_si_test_set({}, ts_, 1, config_);
  EXPECT_TRUE(set.groups.empty());
  EXPECT_EQ(set.total_patterns(), 0);
}

TEST_F(SitestTest, RejectsNonPositiveParts) {
  EXPECT_THROW((void)build_si_test_set({}, ts_, 0, config_),
               std::invalid_argument);
}

TEST_F(SitestTest, LocalPatternsStayInTheirGroup) {
  // Patterns strictly on cores {0,1,4} and strictly on cores {2,3}: the
  // weight-balanced optimum is exactly that 2-way split, so no remainder
  // should be needed.
  std::vector<SiPattern> patterns;
  for (int i = 0; i < 10; ++i) {
    patterns.push_back(on_cores(ts_, {0, 1}));
    patterns.push_back(on_cores(ts_, {0, 4}));
    patterns.push_back(on_cores(ts_, {2, 3}));
  }
  const SiTestSet set = build_si_test_set(patterns, ts_, 2, config_);
  EXPECT_EQ(set.parts, 2);
  std::int64_t remainder_raw = 0;
  std::int64_t local_raw = 0;
  for (const SiTestGroup& g : set.groups) {
    (g.is_remainder ? remainder_raw : local_raw) += g.raw_patterns;
  }
  EXPECT_EQ(remainder_raw, 0);
  EXPECT_EQ(local_raw, 30);
}

TEST_F(SitestTest, CrossGroupPatternsLandInRemainder) {
  std::vector<SiPattern> patterns;
  for (int i = 0; i < 10; ++i) {
    patterns.push_back(on_cores(ts_, {0, 1, 4}));
    patterns.push_back(on_cores(ts_, {2, 3}));
  }
  // Bridging patterns spanning both clusters.
  patterns.push_back(on_cores(ts_, {0, 3}));
  patterns.push_back(on_cores(ts_, {2, 4}));
  const SiTestSet set = build_si_test_set(patterns, ts_, 2, config_);
  const SiTestGroup* rem = nullptr;
  for (const SiTestGroup& g : set.groups) {
    if (g.is_remainder) rem = &g;
  }
  ASSERT_NE(rem, nullptr);
  EXPECT_EQ(rem->raw_patterns, 2);
  // The remainder group loads every core's boundary.
  EXPECT_EQ(static_cast<int>(rem->cores.size()), soc_.core_count());
  EXPECT_EQ(rem->label, "rem");
}

TEST_F(SitestTest, GroupCoresPartitionTheSoc) {
  Rng rng(3);
  const auto patterns =
      generate_random_patterns(ts_, 500, RandomPatternConfig{}, rng);
  for (const int parts : {2, 3, 4}) {
    const SiTestSet set = build_si_test_set(patterns, ts_, parts, config_);
    std::set<int> seen;
    int total = 0;
    for (const SiTestGroup& g : set.groups) {
      if (g.is_remainder) continue;
      for (const int c : g.cores) {
        EXPECT_TRUE(seen.insert(c).second) << "core in two groups";
        ++total;
      }
    }
    EXPECT_LE(total, soc_.core_count());
  }
}

TEST_F(SitestTest, RawPatternCountsAreConserved) {
  Rng rng(4);
  const auto patterns =
      generate_random_patterns(ts_, 800, RandomPatternConfig{}, rng);
  for (const int parts : {1, 2, 4, 8}) {
    const SiTestSet set = build_si_test_set(patterns, ts_, parts, config_);
    EXPECT_EQ(set.total_raw_patterns(), 800) << "parts=" << parts;
    EXPECT_LE(set.total_patterns(), set.total_raw_patterns());
  }
}

TEST_F(SitestTest, MoreGroupsNeverReduceCompactedTotal) {
  // Splitting a pattern set can only hurt pure pattern-count compaction
  // (each bucket compacts independently) — the win comes from shorter
  // lengths, not fewer patterns.
  Rng rng(5);
  const auto patterns =
      generate_random_patterns(ts_, 1000, RandomPatternConfig{}, rng);
  const auto t1 = build_si_test_set(patterns, ts_, 1, config_);
  const auto t4 = build_si_test_set(patterns, ts_, 4, config_);
  EXPECT_LE(t1.total_patterns(), t4.total_patterns());
}

TEST(SitestBig, RealisticWorkloadOnP93791) {
  const Soc soc = load_benchmark("p93791");
  const TerminalSpace ts(soc);
  Rng rng(6);
  const auto patterns =
      generate_random_patterns(ts, 5000, RandomPatternConfig{}, rng);
  const GroupingConfig config;
  const SiTestSet set = build_si_test_set(patterns, ts, 4, config);
  EXPECT_EQ(set.total_raw_patterns(), 5000);
  EXPECT_GE(static_cast<int>(set.groups.size()), 4);
  // The partitioner should keep a solid majority of patterns local.
  std::int64_t remainder_raw = 0;
  for (const SiTestGroup& g : set.groups) {
    if (g.is_remainder) remainder_raw = g.raw_patterns;
  }
  EXPECT_LT(remainder_raw, 5000 * 3 / 4);
}

// ---------------------------------------------------------------------------
// The shared pass against the per-grouping oracle.
// ---------------------------------------------------------------------------

void expect_same_set(const SiTestSet& got, const SiTestSet& want,
                     const std::string& where) {
  EXPECT_EQ(got.parts, want.parts) << where;
  ASSERT_EQ(got.groups.size(), want.groups.size()) << where;
  for (std::size_t g = 0; g < got.groups.size(); ++g) {
    const SiTestGroup& a = got.groups[g];
    const SiTestGroup& b = want.groups[g];
    const std::string at = where + " group " + std::to_string(g);
    EXPECT_EQ(a.label, b.label) << at;
    EXPECT_EQ(a.cores, b.cores) << at;
    EXPECT_EQ(a.patterns, b.patterns) << at;
    EXPECT_EQ(a.raw_patterns, b.raw_patterns) << at;
    EXPECT_EQ(a.is_remainder, b.is_remainder) << at;
    EXPECT_EQ(a.uses_bus, b.uses_bus) << at;
    EXPECT_EQ(a.power, b.power) << at;
  }
}

TEST_F(SitestTest, AllDontCarePatternGoesToTheRemainder) {
  // Regression: an all-don't-care pattern has no care core. At i >= 2 it
  // used to index the partition with care[0] of an empty list.
  const Soc soc = load_benchmark("d695");
  const TerminalSpace ts(soc);
  Rng rng(7);
  auto patterns =
      generate_random_patterns(ts, 200, RandomPatternConfig{}, rng);
  patterns.insert(patterns.begin() + 100, SiPattern{});
  for (const int parts : {2, 4}) {
    const SiTestSet set = build_si_test_set(patterns, ts, parts, config_);
    EXPECT_EQ(set.total_raw_patterns(), 201) << "parts=" << parts;
    ASSERT_FALSE(set.groups.empty());
    EXPECT_TRUE(set.groups.back().is_remainder);
    expect_same_set(
        set, testing::oracle_si_test_set(patterns, ts, parts, config_),
        "parts=" + std::to_string(parts));
  }
  // At i = 1 the pattern is one more member of the single group.
  const SiTestSet one = build_si_test_set(patterns, ts, 1, config_);
  ASSERT_EQ(one.groups.size(), 1u);
  EXPECT_EQ(one.groups[0].raw_patterns, 201);
  // Alone, it makes a remainder of one compacted pattern.
  const std::vector<SiPattern> lone = {SiPattern{}};
  const SiTestSet alone = build_si_test_set(lone, ts, 2, config_);
  ASSERT_EQ(alone.groups.size(), 1u);
  EXPECT_TRUE(alone.groups[0].is_remainder);
  EXPECT_EQ(alone.groups[0].raw_patterns, 1);
  EXPECT_EQ(alone.groups[0].patterns, 1);
}

TEST_F(SitestTest, HypergraphMatchesNormalizedCareSets) {
  Rng rng(8);
  auto patterns =
      generate_random_patterns(ts_, 600, RandomPatternConfig{}, rng);
  patterns.push_back(SiPattern{});  // no care core: no edge
  Hypergraph want;
  for (int core = 0; core < ts_.core_count(); ++core) {
    want.vertex_weights.push_back(ts_.woc(core));
  }
  for (const SiPattern& p : patterns) {
    want.edges.push_back(Hyperedge{p.care_cores(ts_), 1});
  }
  want.normalize();
  const Hypergraph got = build_core_hypergraph(patterns, ts_);
  EXPECT_EQ(got.vertex_weights, want.vertex_weights);
  ASSERT_EQ(got.edges.size(), want.edges.size());
  for (std::size_t e = 0; e < got.edges.size(); ++e) {
    EXPECT_EQ(got.edges[e].pins, want.edges[e].pins) << "edge " << e;
    EXPECT_EQ(got.edges[e].weight, want.edges[e].weight) << "edge " << e;
  }
}

TEST(SitestShared, MatchesTheOracleForEveryGroupingAndThreadCount) {
  // Every thread count 1..hardware_threads() and both seeds on the small
  // sets; the 20 000 pattern sets, where each call costs the most and the
  // largest counts span two stages, run one seed at 1, 2, 3 threads and
  // the maximum.
  const std::vector<std::vector<int>> lists = {
      {1, 2, 4, 8}, {8, 1, 4}, {2, 2}, {3}};
  const int max_threads = ThreadPool::hardware_threads();
  const GroupingConfig config;
  for (const char* name : {"d695", "p22810", "p34392", "p93791"}) {
    const Soc soc = load_benchmark(name);
    const TerminalSpace ts(soc);
    for (const std::int64_t nr : {0, 1, 500, 20000}) {
      for (const std::uint64_t seed : {11u, 12u}) {
        if (nr > 500 && seed != 11u) continue;
        Rng rng(seed);
        const auto patterns =
            generate_random_patterns(ts, nr, RandomPatternConfig{}, rng);
        std::map<int, SiTestSet> oracle;
        for (const int parts : {1, 2, 3, 4, 8}) {
          oracle[parts] =
              testing::oracle_si_test_set(patterns, ts, parts, config);
        }
        for (const std::vector<int>& groupings : lists) {
          for (int threads = 1; threads <= max_threads; ++threads) {
            if (nr > 500 && threads > 3 && threads != max_threads) continue;
            const std::vector<SiTestSet> sets = build_si_test_sets(
                patterns, ts, groupings, config, threads);
            ASSERT_EQ(sets.size(), groupings.size());
            for (std::size_t g = 0; g < groupings.size(); ++g) {
              expect_same_set(sets[g], oracle.at(groupings[g]),
                              std::string(name) + " N_r=" +
                                  std::to_string(nr) + " seed=" +
                                  std::to_string(seed) + " threads=" +
                                  std::to_string(threads) + " i=" +
                                  std::to_string(groupings[g]));
            }
          }
        }
      }
    }
  }
}

TEST(SitestShared, OutOfRangeIdsThrowBeforeAnyCompaction) {
  const Soc soc = load_benchmark("d695");
  const TerminalSpace ts(soc);
  Rng rng(13);
  auto patterns =
      generate_random_patterns(ts, 300, RandomPatternConfig{}, rng);
  const std::vector<int> groupings = {1, 2, 4, 8};
  const int threads = ThreadPool::hardware_threads();
  const GroupingConfig config;

  std::vector<SiPattern> bad_terminal = patterns;
  bad_terminal[150].set(ts.total(), SigValue::kRise);
  EXPECT_THROW((void)build_si_test_sets(bad_terminal, ts, groupings, config,
                                        threads),
               std::out_of_range);
  std::vector<SiPattern> bad_line = patterns;
  bad_line[150].set_bus(config.bus_width, 0);
  EXPECT_THROW(
      (void)build_si_test_sets(bad_line, ts, groupings, config, threads),
      std::out_of_range);
  std::vector<SiPattern> bad_driver = patterns;
  bad_driver[150].set_bus(0, soc.core_count());
  EXPECT_THROW(
      (void)build_si_test_sets(bad_driver, ts, groupings, config, threads),
      std::out_of_range);
  // The failed calls left nothing behind: a good call still works.
  EXPECT_EQ(build_si_test_sets(patterns, ts, groupings, config, threads)
                .size(),
            groupings.size());
}

TEST(SitestShared, HugeGroupingCostsNoMoreThanOnePartPerCore) {
  // i >= the core count puts every core in its own part, so any larger i
  // gives the same groups, without buckets for the empty parts.
  const Soc soc = load_benchmark("d695");
  const TerminalSpace ts(soc);
  Rng rng(14);
  const auto patterns =
      generate_random_patterns(ts, 400, RandomPatternConfig{}, rng);
  const GroupingConfig config;
  SiTestSet huge = build_si_test_set(patterns, ts, 1 << 30, config);
  EXPECT_EQ(huge.parts, 1 << 30);
  huge.parts = soc.core_count();
  expect_same_set(huge,
                  testing::oracle_si_test_set(patterns, ts,
                                              soc.core_count(), config),
                  "i=2^30");
}

TEST(SitestShared, RejectsBadArguments) {
  const Soc soc = load_benchmark("mini5");
  const TerminalSpace ts(soc);
  const std::vector<int> zero = {1, 0};
  const std::vector<int> one = {1};
  EXPECT_THROW((void)build_si_test_sets({}, ts, zero, GroupingConfig{}, 1),
               std::invalid_argument);
  EXPECT_THROW((void)build_si_test_sets({}, ts, one, GroupingConfig{}, 0),
               std::invalid_argument);
  EXPECT_TRUE(
      build_si_test_sets({}, ts, std::span<const int>{}, GroupingConfig{}, 2)
          .empty());
}

}  // namespace
}  // namespace sitam
