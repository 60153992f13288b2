// Property-style determinism checks for the parallel optimizer paths:
// optimize_tam's restart loop, run_sweep's pooled job list and
// optimize_tam_annealing's chains must return bit-identical winners for
// every thread count, across many seeds, on d695-style synthetic SOCs and
// the ITC'02 benchmarks. Also covers evaluator-stats consistency, cancelling a
// pooled sweep, the streamed prepare pipeline against the per-grouping
// oracle, and the staged compaction count's (stage, chunk) tasks.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/flow.h"
#include "interconnect/terminal_space.h"
#include "pattern/compaction.h"
#include "pattern/generator.h"
#include "pattern/raw_store.h"
#include "sitest/group.h"
#include "sitest_oracle.h"
#include "soc/benchmarks.h"
#include "soc/synth.h"
#include "tam/annealing.h"
#include "tam/optimizer.h"
#include "tam/verify.h"
#include "util/cancel.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

constexpr int kSeeds = 10;
const int kThreadCounts[] = {1, 2, 8};

/// Small d695-style SOC (a handful of scan cores with a size spread).
Soc synthetic_soc(std::uint64_t seed) {
  SynthSocConfig config;
  config.cores = 8;
  config.name = "synth" + std::to_string(seed);
  Rng rng(seed);
  return generate_soc(config, rng);
}

/// Random SI test set: groups of 2-4 distinct cores with random pattern
/// counts, deterministic in `seed`.
SiTestSet synthetic_tests(const Soc& soc, std::uint64_t seed) {
  Rng rng(split_stream(seed, 1));
  SiTestSet tests;
  tests.parts = 1;
  const int groups = 5 + static_cast<int>(rng.below(3));
  for (int g = 0; g < groups; ++g) {
    SiTestGroup group;
    group.label = 'g' + std::to_string(g + 1);
    const std::size_t involved = 2 + rng.below(3);
    const auto picks = rng.sample_indices(
        static_cast<std::size_t>(soc.core_count()), involved);
    for (const std::size_t core : picks) {
      group.cores.push_back(static_cast<int>(core));
    }
    std::sort(group.cores.begin(), group.cores.end());
    group.patterns = static_cast<std::int64_t>(20 + rng.below(180));
    group.raw_patterns = group.patterns;
    tests.groups.push_back(std::move(group));
  }
  return tests;
}

struct Scenario {
  Soc soc;
  TestTimeTable table;
  SiTestSet tests;
  int w_max;
};

Scenario make_scenario(std::uint64_t seed) {
  Soc soc = synthetic_soc(seed);
  const int w_max = 6 + static_cast<int>(seed % 5);
  TestTimeTable table(soc, w_max);
  SiTestSet tests = synthetic_tests(soc, seed);
  return Scenario{std::move(soc), std::move(table), std::move(tests), w_max};
}

TEST(ParallelDeterminism, OptimizeTamMatchesAcrossThreadCounts) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Scenario s = make_scenario(seed);
    OptimizerConfig config;
    config.restarts = 3;
    config.threads = 1;
    const OptimizeResult reference =
        optimize_tam(s.soc, s.table, s.tests, s.w_max, config);
    EXPECT_TRUE(verify_stats(reference.stats).empty());

    for (const int threads : kThreadCounts) {
      config.threads = threads;
      const OptimizeResult result =
          optimize_tam(s.soc, s.table, s.tests, s.w_max, config);
      EXPECT_EQ(result.evaluation.t_soc, reference.evaluation.t_soc)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(result.architecture.describe(),
                reference.architecture.describe())
          << "seed=" << seed << " threads=" << threads;
      // The evaluation work is the same set of restarts either way.
      EXPECT_EQ(result.stats.evaluations, reference.stats.evaluations)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, AnnealingMatchesAcrossThreadCounts) {
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Scenario s = make_scenario(seed);
    AnnealingConfig config;
    config.iterations = 600;
    config.chains = 3;
    config.seed = seed;
    config.threads = 1;
    const OptimizeResult reference =
        optimize_tam_annealing(s.soc, s.table, s.tests, s.w_max, config);
    EXPECT_TRUE(verify_stats(reference.stats).empty());

    for (const int threads : kThreadCounts) {
      config.threads = threads;
      const OptimizeResult result =
          optimize_tam_annealing(s.soc, s.table, s.tests, s.w_max, config);
      EXPECT_EQ(result.evaluation.t_soc, reference.evaluation.t_soc)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(result.architecture.describe(),
                reference.architecture.describe())
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, CompactGreedySweepMatchesAcrossThreadCounts) {
  // CompactionConfig::threads is accepted but compact_greedy runs its
  // stages on the caller: the output must not depend on it. The
  // default-config result doubles as the oracle.
  const Soc soc = load_benchmark("d695");
  const TerminalSpace ts(soc);
  Rng rng(0x51717ULL);
  const RandomPatternConfig pattern_config;
  const auto patterns =
      generate_random_patterns(ts, 3000, pattern_config, rng);

  const CompactionResult serial =
      compact_greedy(patterns, ts.total(), pattern_config.bus_width);
  EXPECT_EQ(first_uncovered(patterns, serial.patterns), -1);
  for (const int threads : kThreadCounts) {
    CompactionConfig config;
    config.threads = threads;
    const CompactionResult parallel = compact_greedy(
        patterns, ts.total(), pattern_config.bus_width, config);
    EXPECT_EQ(parallel.patterns, serial.patterns) << "threads=" << threads;
  }
}

TEST(ParallelDeterminism, SharedGroupingPassMatchesAcrossThreadCounts) {
  // The job list of build_si_test_sets: every thread count gives the
  // serial result, group by group (and the tsan preset runs it).
  const Soc soc = load_benchmark("d695");
  const TerminalSpace ts(soc);
  Rng rng(0x5e75ULL);
  const auto patterns =
      generate_random_patterns(ts, 3000, RandomPatternConfig{}, rng);
  const std::vector<int> groupings = {1, 2, 4, 8};
  const GroupingConfig config;
  const std::vector<SiTestSet> serial =
      build_si_test_sets(patterns, ts, groupings, config, 1);
  for (const int threads : kThreadCounts) {
    const std::vector<SiTestSet> parallel =
        build_si_test_sets(patterns, ts, groupings, config, threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t g = 0; g < serial.size(); ++g) {
      ASSERT_EQ(parallel[g].groups.size(), serial[g].groups.size());
      for (std::size_t k = 0; k < serial[g].groups.size(); ++k) {
        const SiTestGroup& a = parallel[g].groups[k];
        const SiTestGroup& b = serial[g].groups[k];
        EXPECT_EQ(a.label, b.label) << "threads=" << threads;
        EXPECT_EQ(a.cores, b.cores) << "threads=" << threads;
        EXPECT_EQ(a.patterns, b.patterns) << "threads=" << threads;
        EXPECT_EQ(a.raw_patterns, b.raw_patterns) << "threads=" << threads;
      }
    }
  }
}

/// Field-by-field equality of two test sets.
void expect_same_set(const SiTestSet& got, const SiTestSet& want,
                     const std::string& where) {
  EXPECT_EQ(got.parts, want.parts) << where;
  ASSERT_EQ(got.groups.size(), want.groups.size()) << where;
  for (std::size_t k = 0; k < want.groups.size(); ++k) {
    const SiTestGroup& a = got.groups[k];
    const SiTestGroup& b = want.groups[k];
    EXPECT_EQ(a.label, b.label) << where << " group " << k;
    EXPECT_EQ(a.cores, b.cores) << where << " group " << k;
    EXPECT_EQ(a.patterns, b.patterns) << where << " group " << k;
    EXPECT_EQ(a.raw_patterns, b.raw_patterns) << where << " group " << k;
    EXPECT_EQ(a.is_remainder, b.is_remainder) << where << " group " << k;
    EXPECT_EQ(a.uses_bus, b.uses_bus) << where << " group " << k;
  }
}

TEST(PreparePipeline, StreamedPassMatchesTheOracle) {
  // The prepare pipeline draws the raw set into a RawPatternStore while
  // the i = 1 count places its chunks on pool workers. For every SOC,
  // N_r around the 4 096-pattern chunk, grouping list and thread count
  // (0 = all cores) it gives the test sets the oracle builds, grouping by
  // grouping, from generate_random_patterns output. p34392 at N_r = 20 000
  // compacts to more than one stage of classes (1 248 at i = 1), so stage
  // tasks run side by side there.
  const std::vector<std::vector<int>> grouping_lists = {
      {1}, {2, 4}, {1, 2, 4, 8}};
  constexpr std::uint64_t kSeed = 0x5e75ULL;
  const RandomPatternConfig pattern_config;
  GroupingConfig config;
  config.bus_width = pattern_config.bus_width;
  for (const char* soc_name : {"d695", "p22810", "p34392"}) {
    const Soc soc = load_benchmark(soc_name);
    const TerminalSpace ts(soc);
    for (const std::int64_t nr : {0, 1, 4095, 4097, 10000, 20000}) {
      if (nr == 20000 && std::string_view(soc_name) != "p34392") continue;
      Rng rng(kSeed);
      const std::vector<SiPattern> raw =
          generate_random_patterns(ts, nr, pattern_config, rng);
      std::map<int, SiTestSet> oracle;
      for (const int parts : {1, 2, 4, 8}) {
        oracle[parts] = testing::oracle_si_test_set(raw, ts, parts, config);
      }
      for (const std::vector<int>& groupings : grouping_lists) {
        for (const int threads : {1, 2, 3, 0}) {
          RawPatternStore store;
          Executor executor(ThreadPool::workers_for(threads, 16));
          Rng draw_rng(kSeed);
          const std::vector<SiTestSet> sets = build_si_test_sets(
              store,
              [&] {
                draw_random_patterns(ts, nr, pattern_config, draw_rng, store);
              },
              ts, groupings, config, executor);
          ASSERT_EQ(sets.size(), groupings.size());
          for (std::size_t g = 0; g < groupings.size(); ++g) {
            expect_same_set(sets[g], oracle[groupings[g]],
                            std::string(soc_name) + " N_r=" +
                                std::to_string(nr) + " threads=" +
                                std::to_string(threads) + " i=" +
                                std::to_string(groupings[g]));
          }
        }
      }
    }
  }
}

TEST(PreparePipeline, PrepareMatchesTheOracle) {
  // SiWorkload::prepare runs that pipeline on its own executor: pooled
  // (parallel_prepare with more than one grouping) and on the caller.
  for (const bool parallel : {true, false}) {
    for (const std::vector<int>& groupings :
         std::vector<std::vector<int>>{{1}, {1, 2, 4, 8}}) {
      SiWorkloadConfig config;
      config.pattern_count = 4097;
      config.groupings = groupings;
      config.parallel_prepare = parallel;
      const Soc soc = load_benchmark("p22810");
      const TerminalSpace ts(soc);
      const SiWorkload workload = SiWorkload::prepare(soc, config);
      Rng rng(config.seed);
      const std::vector<SiPattern> raw = generate_random_patterns(
          ts, config.pattern_count, config.patterns, rng);
      GroupingConfig grouping = config.grouping;
      grouping.partition.seed = config.seed ^ 0x9e3779b97f4a7c15ULL;
      for (const int parts : groupings) {
        expect_same_set(
            workload.tests(parts),
            testing::oracle_si_test_set(raw, ts, parts, grouping),
            "parallel=" + std::to_string(parallel) +
                " i=" + std::to_string(parts));
      }
    }
  }
}

TEST(PreparePipeline, StoreCountMatchesPatternCountAtAnyChunkSize) {
  // compact_greedy_count over a store — streamed while it is drawn on
  // another thread, and over its views once closed — equals the count of
  // the same patterns as SiPatterns, whatever the chunk size.
  const Soc soc = load_benchmark("p34392");
  const TerminalSpace ts(soc);
  const RandomPatternConfig pattern_config;
  constexpr std::int64_t kCount = 6000;
  Rng rng(0xc0ffeeULL);
  const std::vector<SiPattern> raw =
      generate_random_patterns(ts, kCount, pattern_config, rng);
  std::vector<std::uint32_t> all(raw.size());
  std::iota(all.begin(), all.end(), std::uint32_t{0});
  const std::size_t expected = compact_greedy_count(
      raw, all, ts.total(), pattern_config.bus_width);
  EXPECT_GT(expected, 0u);
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{4096},
        static_cast<std::size_t>(kCount)}) {
    RawPatternStore store(chunk);
    Executor executor(2);
    std::future<std::size_t> streamed = executor.submit([&] {
      return compact_greedy_count(store, ts.total(),
                                  pattern_config.bus_width);
    });
    Rng draw_rng(0xc0ffeeULL);
    draw_random_patterns(ts, kCount, pattern_config, draw_rng, store);
    store.close();
    EXPECT_EQ(streamed.get(), expected) << "chunk=" << chunk;
    EXPECT_EQ(compact_greedy_count(store.views(), all, ts.total(),
                                   pattern_config.bus_width),
              expected)
        << "chunk=" << chunk;
  }
}

TEST(PreparePipeline, BadIdInTheSecondChunkThrowsAfterEveryJobReturns) {
  // A bad id in chunk 2 stops the streamed count and index on their
  // workers while the draw goes on. The pass throws the span form's
  // std::out_of_range, and only once every job it started has returned:
  // the store and the executor are destroyed right after, so a job still
  // reading them would show under asan or tsan.
  const Soc soc = load_benchmark("d695");
  const TerminalSpace ts(soc);
  const RandomPatternConfig pattern_config;
  GroupingConfig config;
  config.bus_width = pattern_config.bus_width;
  const std::vector<int> groupings = {1, 2, 4, 8};
  constexpr std::size_t kChunk = 64;
  const std::string bad_terminal = "compaction: terminal id " +
                                   std::to_string(ts.total()) +
                                   " outside declared terminal space";
  const std::string bad_driver = "sitest: bus driver core " +
                                 std::to_string(soc.core_count()) +
                                 " outside the SOC";
  for (const std::string& expected : {bad_terminal, bad_driver}) {
    for (const int threads : {1, 2, 3, 0}) {
      SCOPED_TRACE(expected + " threads=" + std::to_string(threads));
      auto store = std::make_unique<RawPatternStore>(kChunk);
      auto executor =
          std::make_unique<Executor>(ThreadPool::workers_for(threads, 16));
      Rng rng(0xbad1dULL);
      try {
        (void)build_si_test_sets(
            *store,
            [&] {
              draw_random_patterns(ts, kChunk + 10, pattern_config, rng,
                                   *store);
              if (expected == bad_terminal) {
                store->add_care(ts.total(), SigValue::kRise);
              } else {
                store->add_care(0, SigValue::kRise);
                store->add_bus(BusBit{0, soc.core_count()});
              }
              store->end_pattern();
              draw_random_patterns(ts, 8 * kChunk, pattern_config, rng,
                                   *store);
            },
            ts, groupings, config, *executor);
        ADD_FAILURE() << "no throw";
      } catch (const std::out_of_range& e) {
        EXPECT_EQ(std::string(e.what()), expected);
      }
      store.reset();
      executor.reset();
    }
  }
}

TEST(PreparePipeline, CancelDuringTheDrawUnwindsWithCancelled) {
  // The token fires while chunks are still being drawn: the streamed
  // readers stop at their next chunk, and the pass unwinds with Cancelled
  // whether they ran on workers or on the caller.
  const Soc soc = load_benchmark("p22810");
  const TerminalSpace ts(soc);
  const RandomPatternConfig pattern_config;
  GroupingConfig config;
  config.bus_width = pattern_config.bus_width;
  const std::vector<int> groupings = {1, 2, 4, 8};
  for (const int threads : {1, 2, 3, 0}) {
    SCOPED_TRACE(threads);
    CancelToken token;
    RawPatternStore store(64);
    Executor executor(ThreadPool::workers_for(threads, 16));
    Rng rng(0xca9ce1ULL);
    EXPECT_THROW((void)build_si_test_sets(
                     store,
                     [&] {
                       draw_random_patterns(ts, 300, pattern_config, rng,
                                            store);
                       token.request();
                       draw_random_patterns(ts, 700, pattern_config, rng,
                                            store);
                     },
                     ts, groupings, config, executor, &token),
                 Cancelled);
  }
}

/// About `classes` classes over several stages: pairwise-conflicting seeds
/// (the base-4 digits of k on terminals 0..5, each driving bus line k % 8
/// from driver k % 3) shuffled with three times as many fillers, each a few
/// of some seed's digits plus a private terminal. Uses terminals below
/// 6 + 3 * classes and bus lines below 8.
std::vector<SiPattern> many_class_patterns(int classes, std::uint64_t seed) {
  constexpr SigValue kValues[] = {SigValue::kStable0, SigValue::kStable1,
                                  SigValue::kRise, SigValue::kFall};
  Rng rng(seed);
  std::vector<SiPattern> patterns;
  for (int k = 0; k < classes; ++k) {
    SiPattern p;
    for (int d = 0, rest = k; d < 6; ++d, rest /= 4) {
      p.set(d, kValues[rest % 4]);
    }
    p.set_bus(k % 8, k % 3);
    patterns.push_back(std::move(p));
  }
  for (int f = 0; f < 3 * classes; ++f) {
    const auto k = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(classes)));
    SiPattern p;
    for (int d = 0, rest = k; d < 6; ++d, rest /= 4) {
      if (rng.below(2) == 0) p.set(d, kValues[rest % 4]);
    }
    p.set(6 + f, kValues[rng.below(4)]);
    patterns.push_back(std::move(p));
  }
  rng.shuffle(std::span<SiPattern>(patterns));
  return patterns;
}

/// Appends `patterns` to `store`, one pattern at a time.
void write_patterns(std::span<const SiPattern> patterns,
                    RawPatternStore& store) {
  for (const SiPattern& p : patterns) {
    for (const auto& [terminal, value] : p.assignments()) {
      store.add_care(terminal, value);
    }
    for (const BusBit& bit : p.bus_bits()) store.add_bus(bit);
    store.end_pattern();
  }
}

constexpr int kManyClasses = 2600;  // over three stages
constexpr int kManyTerminals = 6 + 3 * kManyClasses;

TEST(StagedCount, MatchesAcrossExecutorSizesAndChunks) {
  // The (stage, chunk) tasks of one count, on the caller and on pools of
  // 2, 3 and every hardware thread, over member lists and over a store
  // streamed in small and full chunks: every count is the serial sweep's.
  const std::vector<SiPattern> patterns =
      many_class_patterns(kManyClasses, 0x57a6edULL);
  const std::vector<PatternView> views = pattern_views(patterns);
  std::vector<std::uint32_t> all(views.size());
  std::iota(all.begin(), all.end(), std::uint32_t{0});
  std::vector<std::uint32_t> odd;
  std::vector<SiPattern> odd_copies;
  for (std::uint32_t i = 1; i < views.size(); i += 2) {
    odd.push_back(i);
    odd_copies.push_back(patterns[i]);
  }
  const std::size_t expected =
      compact_greedy(patterns, kManyTerminals, 8).patterns.size();
  const std::size_t expected_odd =
      compact_greedy(odd_copies, kManyTerminals, 8).patterns.size();
  ASSERT_GT(expected, 3 * kCompactionStageClasses);
  for (const int threads : {1, 2, 3, ThreadPool::hardware_threads()}) {
    SCOPED_TRACE(threads);
    Executor executor(threads);
    EXPECT_EQ(
        start_greedy_count(views, all, kManyTerminals, 8, executor).get(),
        expected);
    EXPECT_EQ(
        start_greedy_count(views, odd, kManyTerminals, 8, executor).get(),
        expected_odd);
    for (const std::size_t chunk : {std::size_t{64}, std::size_t{4096}}) {
      RawPatternStore store(chunk);
      std::future<std::size_t> streamed;
      // On the caller the count runs at the call, so after the writes.
      if (threads > 1) {
        streamed = start_greedy_count(store, kManyTerminals, 8, executor);
      }
      write_patterns(patterns, store);
      store.close();
      if (threads == 1) {
        streamed = start_greedy_count(store, kManyTerminals, 8, executor);
      }
      EXPECT_EQ(streamed.get(), expected) << "chunk=" << chunk;
    }
  }
}

TEST(StagedCount, BadIdInALaterChunkThrowsAfterEveryStageTaskReturns) {
  // A bad terminal id well after stage 0 has filled: stage 0's task throws
  // while later stages still place earlier chunks. The future carries the
  // error only once every task has returned — the store, the patterns and
  // the executor are destroyed right after, which asan and tsan would
  // catch if a task still ran.
  std::vector<SiPattern> patterns =
      many_class_patterns(kManyClasses, 0xbad57a9ULL);
  patterns[8000].set(kManyTerminals, SigValue::kRise);
  const std::string expected = "compaction: terminal id " +
                               std::to_string(kManyTerminals) +
                               " outside declared terminal space";
  for (const int threads : {2, 3, ThreadPool::hardware_threads()}) {
    SCOPED_TRACE(threads);
    auto executor = std::make_unique<Executor>(threads);
    auto store = std::make_unique<RawPatternStore>(64);
    auto views = std::make_unique<std::vector<PatternView>>(
        pattern_views(patterns));
    std::vector<std::uint32_t> all(views->size());
    std::iota(all.begin(), all.end(), std::uint32_t{0});
    std::future<std::size_t> listed =
        start_greedy_count(*views, all, kManyTerminals, 8, *executor);
    std::future<std::size_t> streamed =
        start_greedy_count(*store, kManyTerminals, 8, *executor);
    write_patterns(patterns, *store);
    store->close();
    for (std::future<std::size_t>* count : {&listed, &streamed}) {
      try {
        (void)count->get();
        ADD_FAILURE() << "no throw";
      } catch (const std::out_of_range& e) {
        EXPECT_EQ(std::string(e.what()), expected);
      }
    }
    views.reset();
    store.reset();
    executor.reset();
  }
}

TEST(StagedCount, CancelWhileStagesRunUnwindsAfterEveryStageTask) {
  // The token fires after stage 0 has filled and forwards to later
  // stages; the next task to start sees it. The count unwinds with
  // Cancelled once every task has returned.
  const std::vector<SiPattern> patterns =
      many_class_patterns(kManyClasses, 0xca9ce1ULL);
  const std::span<const SiPattern> all(patterns);
  for (const int threads : {2, 3, ThreadPool::hardware_threads()}) {
    SCOPED_TRACE(threads);
    CancelToken token;
    auto executor = std::make_unique<Executor>(threads);
    auto store = std::make_unique<RawPatternStore>(64);
    std::future<std::size_t> streamed =
        start_greedy_count(*store, kManyTerminals, 8, *executor, &token);
    write_patterns(all.first(6000), *store);
    token.request();
    write_patterns(all.subspan(6000), *store);
    store->close();
    EXPECT_THROW((void)streamed.get(), Cancelled);
    store.reset();
    executor.reset();
  }
}

/// Field-by-field equality of two sweep rows: the baseline, every
/// grouping's architecture, evaluation and stats, and the row's minimum.
void expect_same_row(const ExperimentOutcome& got,
                     const ExperimentOutcome& want, const std::string& where) {
  EXPECT_EQ(got.w_max, want.w_max) << where;
  EXPECT_EQ(got.t_baseline, want.t_baseline) << where;
  EXPECT_EQ(got.baseline_architecture.describe(),
            want.baseline_architecture.describe())
      << where;
  ASSERT_EQ(got.per_grouping.size(), want.per_grouping.size()) << where;
  for (std::size_t g = 0; g < want.per_grouping.size(); ++g) {
    const OptimizeResult& a = got.per_grouping[g];
    const OptimizeResult& b = want.per_grouping[g];
    EXPECT_EQ(a.architecture.describe(), b.architecture.describe())
        << where << " grouping " << g;
    EXPECT_TRUE(a.evaluation == b.evaluation) << where << " grouping " << g;
    EXPECT_TRUE(a.stats == b.stats) << where << " grouping " << g;
  }
  EXPECT_EQ(got.t_min, want.t_min) << where;
  EXPECT_EQ(got.best_grouping, want.best_grouping) << where;
}

SiWorkload sweep_workload(const char* soc_name) {
  SiWorkloadConfig config;
  config.pattern_count = 800;
  config.groupings = {1, 2, 4};
  return SiWorkload::prepare(load_benchmark(soc_name), config);
}

TEST(SweepDeterminism, RowsMatchAcrossThreadCounts) {
  // The pooled job list of run_sweep: every thread count (0 = all cores)
  // gives the serial rows, at one restart and at four.
  const std::vector<int> widths = {8, 16, 24};
  for (const char* soc_name : {"d695", "p22810"}) {
    const SiWorkload workload = sweep_workload(soc_name);
    for (const int restarts : {1, 4}) {
      OptimizerConfig config;
      config.restarts = restarts;
      config.threads = 1;
      const SweepResult serial = run_sweep(workload, widths, config);
      ASSERT_EQ(serial.rows.size(), widths.size());
      for (const ExperimentOutcome& row : serial.rows) {
        for (const OptimizeResult& result : row.per_grouping) {
          EXPECT_TRUE(verify_stats(result.stats).empty());
        }
      }
      for (const int threads : {2, 3, 0}) {
        config.threads = threads;
        const SweepResult pooled = run_sweep(workload, widths, config);
        ASSERT_EQ(pooled.rows.size(), serial.rows.size());
        for (std::size_t r = 0; r < serial.rows.size(); ++r) {
          expect_same_row(pooled.rows[r], serial.rows[r],
                          std::string(soc_name) + " restarts=" +
                              std::to_string(restarts) + " threads=" +
                              std::to_string(threads) + " W=" +
                              std::to_string(widths[r]));
        }
      }
    }
  }
}

TEST(SweepDeterminism, RunExperimentIsTheMatchingSweepRow) {
  const SiWorkload workload = sweep_workload("d695");
  OptimizerConfig config;
  config.restarts = 2;
  const SweepResult sweep = run_sweep(workload, {8, 16}, config);
  expect_same_row(run_experiment(workload, 16, config), sweep.rows[1],
                  "run_experiment W=16");
  config.threads = 1;
  expect_same_row(run_experiment(workload, 8, config), sweep.rows[0],
                  "run_experiment W=8 threads=1");
}

TEST(SweepDeterminism, BatchOfJobsMatchesOneCallPerJob) {
  // optimize_tam_batch returns, per job, exactly what optimize_tam gives
  // for that job alone.
  const Scenario a = make_scenario(4);
  const TestTimeTable wide(a.soc, a.w_max + 3);
  const SiTestSet no_tests;
  const OptimizeJob jobs[] = {{&a.table, &a.tests, a.w_max},
                              {&wide, &a.tests, a.w_max + 3},
                              {&a.table, &no_tests, a.w_max}};
  OptimizerConfig config;
  config.restarts = 3;
  for (const int threads : {1, 3}) {
    Executor executor(threads);
    const std::vector<OptimizeResult> batch =
        optimize_tam_batch(a.soc, jobs, config, executor);
    ASSERT_EQ(batch.size(), 3u);
    for (std::size_t j = 0; j < 3; ++j) {
      const OptimizeResult alone = optimize_tam(
          a.soc, *jobs[j].table, *jobs[j].tests, jobs[j].w_max, config);
      EXPECT_EQ(batch[j].architecture.describe(),
                alone.architecture.describe())
          << "job " << j;
      EXPECT_TRUE(batch[j].evaluation == alone.evaluation) << "job " << j;
      EXPECT_TRUE(batch[j].stats == alone.stats) << "job " << j;
    }
  }
  const OptimizeJob bad[] = {{&a.table, &a.tests, 0}};
  Executor executor(2);
  EXPECT_THROW((void)optimize_tam_batch(a.soc, bad, config, executor),
               std::invalid_argument);
}

TEST(SweepDeterminism, CancelUnwindsAPooledSweep) {
  // A token fired while the pool is busy: the sweep throws Cancelled after
  // every started unit has returned (ASan/TSan would flag a worker still
  // reading the sweep's tables or tests).
  const SiWorkload workload = sweep_workload("p22810");
  CancelToken token;
  OptimizerConfig config;
  config.restarts = 32;
  config.threads = 3;
  config.cancel = &token;
  std::atomic<bool> started{false};
  std::thread canceller([&] {
    while (!started.load()) std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    token.request();
  });
  bool cancelled = false;
  try {
    started.store(true);
    (void)run_sweep(workload, {8, 16, 24, 32, 40, 48, 56, 64}, config);
  } catch (const Cancelled&) {
    cancelled = true;
  }
  canceller.join();
  EXPECT_TRUE(cancelled);

  // A token set before the call stops the sweep before any unit runs.
  config.threads = 0;
  EXPECT_THROW((void)run_sweep(workload, {8}, config), Cancelled);
}

TEST(ParallelDeterminism, ChainZeroMatchesSingleChainConfig) {
  // chains=1 must reproduce the historical single-chain trajectory, and a
  // multi-chain winner can only improve on it.
  const Scenario s = make_scenario(3);
  AnnealingConfig one;
  one.iterations = 600;
  one.seed = 42;
  const OptimizeResult single =
      optimize_tam_annealing(s.soc, s.table, s.tests, s.w_max, one);
  AnnealingConfig many = one;
  many.chains = 4;
  const OptimizeResult multi =
      optimize_tam_annealing(s.soc, s.table, s.tests, s.w_max, many);
  EXPECT_LE(multi.evaluation.t_soc, single.evaluation.t_soc);
}

}  // namespace
}  // namespace sitam
