// Tests for src/util: RNG determinism and distributions, text tables, CLI
// parsing, invariant checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "util/check.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/table.h"

namespace sitam {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 16; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 8);
}

TEST(Rng, ReseedRestartsSequence) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformStaysInRange) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, UniformCoversWholeRange) {
  Rng rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(0, 3));
  EXPECT_EQ(seen.size(), 4u);
}

TEST(Rng, UniformSinglePoint) {
  Rng rng(5);
  EXPECT_EQ(rng.uniform(17, 17), 17u);
}

TEST(Rng, UniformThrowsOnInvertedRange) {
  Rng rng(6);
  EXPECT_THROW((void)rng.uniform(9, 5), std::invalid_argument);
}

TEST(Rng, BelowThrowsOnZero) {
  Rng rng(6);
  EXPECT_THROW((void)rng.below(0), std::invalid_argument);
}

TEST(Rng, UnitInHalfOpenInterval) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.unit();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceRoughlyCalibrated) {
  Rng rng(10);
  int hits = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  const double rate = static_cast<double>(hits) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, SampleIndicesAreDistinctAndInRange) {
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    const auto sample = rng.sample_indices(100, 10);
    EXPECT_EQ(sample.size(), 10u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 10u);
    for (const auto idx : sample) EXPECT_LT(idx, 100u);
  }
}

TEST(Rng, SampleIndicesDenseBranch) {
  Rng rng(13);
  const auto sample = rng.sample_indices(10, 10);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(Rng, SampleIndicesThrowsWhenKExceedsN) {
  Rng rng(14);
  EXPECT_THROW((void)rng.sample_indices(3, 4), std::invalid_argument);
}

TEST(Rng, SampleIndicesEmpty) {
  Rng rng(15);
  EXPECT_TRUE(rng.sample_indices(5, 0).empty());
}

/// Reference sampler: a partial Fisher-Yates for dense draws, rejection
/// through an unordered_set otherwise.
std::vector<std::size_t> sample_with_a_set(Rng& rng, std::size_t n,
                                           std::size_t k) {
  std::vector<std::size_t> out;
  if (k == 0) return out;
  if (k * 3 >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(rng.below(n - i));
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
  }
  std::unordered_set<std::size_t> seen;
  while (out.size() < k) {
    const auto v = static_cast<std::size_t>(rng.below(n));
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

TEST(Rng, SampleIndicesMatchTheRejectionSetForEverySmallN) {
  // Same draws, same order, same generator state afterwards, for every
  // (n <= 64, k) pair and both entry points.
  std::vector<std::size_t> reused;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    for (std::size_t n = 1; n <= 64; ++n) {
      for (std::size_t k = 0; k <= n; ++k) {
        Rng oracle(split_stream(seed, n * 65 + k));
        Rng fresh = oracle;
        Rng into = oracle;
        const std::vector<std::size_t> want = sample_with_a_set(oracle, n, k);
        ASSERT_EQ(fresh.sample_indices(n, k), want)
            << "seed=" << seed << " n=" << n << " k=" << k;
        into.sample_indices(n, k, reused);
        ASSERT_EQ(reused, want) << "seed=" << seed << " n=" << n << " k=" << k;
        const std::uint64_t next = oracle();
        ASSERT_EQ(fresh(), next) << "seed=" << seed << " n=" << n;
        ASSERT_EQ(into(), next) << "seed=" << seed << " n=" << n;
      }
    }
  }
}

TEST(TextTable, RendersHeadersAndRows) {
  TextTable table;
  table.add_column("name", Align::kLeft);
  table.add_column("value");
  table.begin_row();
  table.cell(std::string("alpha"));
  table.cell(std::int64_t{42});
  const std::string out = table.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(TextTable, DoubleFormattingRespectsDecimals) {
  TextTable table;
  table.add_column("x");
  table.begin_row();
  table.cell(3.14159, 3);
  EXPECT_NE(table.str().find("3.142"), std::string::npos);
}

TEST(TextTable, CsvEscapesSpecialCharacters) {
  TextTable table;
  table.add_column("a");
  table.add_column("b");
  table.begin_row();
  table.cell(std::string("x,y"));
  table.cell(std::string("quote\"inside"));
  const std::string csv = table.csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"quote\"\"inside\""), std::string::npos);
}

TEST(TextTable, CellWithoutRowThrows) {
  TextTable table;
  table.add_column("a");
  EXPECT_THROW(table.cell(std::int64_t{1}), std::logic_error);
}

TEST(TextTable, TooManyCellsThrows) {
  TextTable table;
  table.add_column("a");
  table.begin_row();
  table.cell(std::int64_t{1});
  EXPECT_THROW(table.cell(std::int64_t{2}), std::logic_error);
}

TEST(TextTable, ColumnAfterRowThrows) {
  TextTable table;
  table.add_column("a");
  table.begin_row();
  table.cell(std::int64_t{1});
  EXPECT_THROW(table.add_column("b"), std::logic_error);
}

TEST(CliArgs, ParsesKeyValueForms) {
  const char* argv[] = {"prog", "--alpha=1", "--beta", "two", "--flag"};
  const CliArgs args(5, argv);
  EXPECT_EQ(args.get_or("alpha", std::int64_t{0}), 1);
  EXPECT_EQ(args.get_or("beta", std::string("none")), "two");
  EXPECT_TRUE(args.has("flag"));
  EXPECT_FALSE(args.has("gamma"));
}

TEST(CliArgs, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv);
  EXPECT_EQ(args.get_or("missing", std::int64_t{7}), 7);
  EXPECT_DOUBLE_EQ(args.get_or("missing", 2.5), 2.5);
  EXPECT_EQ(args.get_or("missing", std::string("d")), "d");
}

TEST(CliArgs, ParsesIntegerLists) {
  const char* argv[] = {"prog", "--widths=8,16,24"};
  const CliArgs args(2, argv);
  const auto widths = args.get_list_or("widths", {});
  ASSERT_EQ(widths.size(), 3u);
  EXPECT_EQ(widths[0], 8);
  EXPECT_EQ(widths[2], 24);
}

TEST(CliArgs, ListFallback) {
  const char* argv[] = {"prog"};
  const CliArgs args(1, argv);
  const auto widths = args.get_list_or("widths", {1, 2});
  ASSERT_EQ(widths.size(), 2u);
}

TEST(CliArgs, NumericErrorsNameTheFlagAndValue) {
  const char* argv[] = {"prog", "--wmax=32x", "--ratio=0.5q", "--widths=8,1x6",
                        "--nr=99999999999999999999", "--flag"};
  const CliArgs args(6, argv);
  const auto message = [&](auto&& get) -> std::string {
    try {
      (void)get();
    } catch (const std::invalid_argument& err) {
      return err.what();
    }
    return "no throw";
  };
  EXPECT_EQ(message([&] { return args.get_or("wmax", std::int64_t{0}); }),
            "--wmax: expected an integer, got '32x'");
  EXPECT_EQ(message([&] { return args.get_or("ratio", 0.0); }),
            "--ratio: expected a number, got '0.5q'");
  EXPECT_EQ(message([&] { return args.get_list_or("widths", {}); }),
            "--widths: expected an integer, got '1x6'");
  EXPECT_EQ(message([&] { return args.get_or("nr", std::int64_t{0}); }),
            "--nr: expected an integer in range, got '99999999999999999999'");
  // A bare boolean flag carries no number.
  EXPECT_EQ(message([&] { return args.get_or("flag", std::int64_t{0}); }),
            "--flag: expected an integer, got 'true'");
}

TEST(CliArgs, ParsesWholeNumbers) {
  const char* argv[] = {"prog", "--seed=-5", "--ratio=0.25", "--w=8,16"};
  const CliArgs args(4, argv);
  EXPECT_EQ(args.get_or("seed", std::int64_t{0}), -5);
  EXPECT_DOUBLE_EQ(args.get_or("ratio", 0.0), 0.25);
  EXPECT_EQ(args.get_list_or("w", {}), (std::vector<std::int64_t>{8, 16}));
}

TEST(CliArgs, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(CliArgs(2, argv), std::invalid_argument);
}

TEST(Check, ThrowsWithMessage) {
  try {
    SITAM_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const std::logic_error& err) {
    EXPECT_NE(std::string(err.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Check, PassesSilently) {
  EXPECT_NO_THROW(SITAM_CHECK(2 + 2 == 4));
}

}  // namespace
}  // namespace sitam
