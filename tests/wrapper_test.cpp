// Tests for src/wrapper: Combine wrapper construction, InTest time model,
// SI-mode shift lengths, Pareto widths and the precomputed time table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>

#include "soc/benchmarks.h"
#include "wrapper/design.h"

namespace sitam {
namespace {

Module scan_module(std::vector<int> chains, int inputs, int outputs,
                   std::int64_t patterns) {
  Module m;
  m.id = 1;
  m.name = std::string(1, 'm');
  m.inputs = inputs;
  m.outputs = outputs;
  m.scan_chains = std::move(chains);
  m.patterns = patterns;
  return m;
}

TEST(DesignWrapper, Width1ConcatenatesEverything) {
  const Module m = scan_module({10, 20}, 5, 7, 3);
  const WrapperDesign d = design_wrapper(m, 1);
  EXPECT_EQ(d.scan_in, 5 + 30);
  EXPECT_EQ(d.scan_out, 30 + 7);
}

TEST(DesignWrapper, AllCellsArePlacedExactlyOnce) {
  const Module m = scan_module({13, 7, 22, 5}, 11, 17, 9);
  for (int w = 1; w <= 8; ++w) {
    const WrapperDesign d = design_wrapper(m, w);
    int inputs = 0;
    int outputs = 0;
    std::int64_t flops = 0;
    for (const WrapperChain& chain : d.chains) {
      inputs += chain.input_cells;
      outputs += chain.output_cells;
      flops += chain.flops();
    }
    EXPECT_EQ(inputs, m.wic()) << "w=" << w;
    EXPECT_EQ(outputs, m.woc()) << "w=" << w;
    EXPECT_EQ(flops, m.scan_flops()) << "w=" << w;
  }
}

TEST(DesignWrapper, ScanInIsMaxOverChains) {
  const Module m = scan_module({10, 10, 10}, 6, 6, 1);
  const WrapperDesign d = design_wrapper(m, 3);
  std::int64_t max_in = 0;
  std::int64_t max_out = 0;
  for (const WrapperChain& chain : d.chains) {
    max_in = std::max(max_in, chain.scan_in_length());
    max_out = std::max(max_out, chain.scan_out_length());
  }
  EXPECT_EQ(d.scan_in, max_in);
  EXPECT_EQ(d.scan_out, max_out);
}

TEST(DesignWrapper, BalancedForUniformChains) {
  // 4 chains of 25 on width 4: one chain each, si = so = 25 + spread cells.
  const Module m = scan_module({25, 25, 25, 25}, 8, 8, 1);
  const WrapperDesign d = design_wrapper(m, 4);
  EXPECT_EQ(d.scan_in, 27);   // 25 flops + 2 input cells
  EXPECT_EQ(d.scan_out, 27);  // 25 flops + 2 output cells
}

TEST(DesignWrapper, LongestChainIsLowerBound) {
  const Module m = scan_module({100, 3, 3, 3}, 2, 2, 5);
  for (int w = 1; w <= 6; ++w) {
    const WrapperDesign d = design_wrapper(m, w);
    EXPECT_GE(std::max(d.scan_in, d.scan_out), 100) << "w=" << w;
  }
}

TEST(DesignWrapper, CombinationalCoreSpreadsCells) {
  const Module m = scan_module({}, 10, 20, 2);
  const WrapperDesign d = design_wrapper(m, 5);
  EXPECT_EQ(d.scan_in, 2);   // ceil(10/5)
  EXPECT_EQ(d.scan_out, 4);  // ceil(20/5)
}

TEST(DesignWrapper, ThrowsOnNonPositiveWidth) {
  const Module m = scan_module({5}, 1, 1, 1);
  EXPECT_THROW((void)design_wrapper(m, 0), std::invalid_argument);
  EXPECT_THROW((void)design_wrapper(m, -3), std::invalid_argument);
}

TEST(WrapperTestTime, MatchesClosedForm) {
  const Module m = scan_module({10, 20}, 5, 7, 3);
  const WrapperDesign d = design_wrapper(m, 1);
  // T = (1 + max(si, so)) * p + min(si, so)
  const std::int64_t expected = (1 + 37) * 3 + 35;
  EXPECT_EQ(d.test_time(m.patterns), expected);
  EXPECT_EQ(intest_time(m, 1), expected);
}

TEST(WrapperTestTime, ZeroPatternsZeroTime) {
  const Module m = scan_module({10}, 2, 2, 0);
  EXPECT_EQ(intest_time(m, 1), 0);
  EXPECT_EQ(intest_time(m, 4), 0);
}

TEST(WrapperTestTime, BistCyclesAddWidthIndependentTerm) {
  Module m = scan_module({10, 20}, 5, 7, 3);
  const std::int64_t base_w1 = intest_time(m, 1);
  const std::int64_t base_w4 = intest_time(m, 4);
  m.bist_patterns = 5000;
  EXPECT_EQ(intest_time(m, 1), base_w1 + 5000);
  EXPECT_EQ(intest_time(m, 4), base_w4 + 5000);
}

// More wires never lengthen a core's InTest, on every embedded SOC up to
// W = 64 (pareto_width and the mergeTAMs partner bound rely on it). The
// table's envelope, intest_floor, is the running minimum of the column, so
// it equals intest wherever the column is non-increasing.
TEST(WrapperTestTime, NonIncreasingInWidth) {
  constexpr int kMaxWidth = 64;
  for (const std::string& name : benchmark_names()) {
    const Soc soc = load_benchmark(name);
    const TestTimeTable table(soc, kMaxWidth);
    for (int c = 0; c < soc.core_count(); ++c) {
      const Module& m = soc.modules[static_cast<std::size_t>(c)];
      std::int64_t prev = intest_time(m, 1);
      std::int64_t running_min = prev;
      bool monotone = true;  // the column so far is non-increasing
      for (int w = 1; w <= kMaxWidth; ++w) {
        const std::int64_t t = intest_time(m, w);
        EXPECT_LE(t, prev) << name << " module " << m.id << " w=" << w;
        EXPECT_EQ(table.intest(c, w), t);
        running_min = std::min(running_min, t);
        EXPECT_EQ(table.intest_floor(c, w), running_min)
            << name << " module " << m.id << " w=" << w;
        monotone = monotone && t <= prev;
        if (monotone) {
          EXPECT_EQ(table.intest_floor(c, w), t)
              << name << " module " << m.id << " w=" << w;
        }
        prev = t;
      }
    }
  }
}

TEST(WrapperTestTime, SerialTimeMatchesDataVolumeScale) {
  // On a 1-bit TAM: T = (1 + wic + flops OR flops + woc) * p + min(...);
  // both scan lengths equal the full pattern bit count split by direction,
  // so T is close to volume when in/out are balanced.
  const Module m = scan_module({50}, 25, 25, 10);
  const std::int64_t t = intest_time(m, 1);
  EXPECT_EQ(t, (1 + 75) * 10 + 75);
}

TEST(SiShift, CeilDivision) {
  Module m = scan_module({}, 3, 10, 1);
  EXPECT_EQ(si_woc_shift(m, 1), 10);
  EXPECT_EQ(si_woc_shift(m, 3), 4);
  EXPECT_EQ(si_woc_shift(m, 10), 1);
  EXPECT_EQ(si_woc_shift(m, 64), 1);
  EXPECT_EQ(si_wic_shift(m, 2), 2);
}

TEST(SiShift, BidirsCountOnBothSides) {
  Module m = scan_module({}, 3, 10, 1);
  m.bidirs = 6;
  EXPECT_EQ(si_woc_shift(m, 1), 16);
  EXPECT_EQ(si_wic_shift(m, 1), 9);
}

TEST(SiShift, ThrowsOnBadWidth) {
  const Module m = scan_module({}, 1, 1, 1);
  EXPECT_THROW((void)si_woc_shift(m, 0), std::invalid_argument);
}

TEST(ParetoWidth, FindsSmallestEquivalentWidth) {
  // One chain of 100 dominates: beyond w where cells fit alongside, extra
  // width is useless.
  const Module m = scan_module({100}, 4, 4, 7);
  const int pareto = pareto_width(m, 16);
  EXPECT_LE(pareto, 16);
  EXPECT_EQ(intest_time(m, pareto), intest_time(m, 16));
  if (pareto > 1) {
    EXPECT_GT(intest_time(m, pareto - 1), intest_time(m, 16));
  }
}

TEST(ParetoWidth, IdentityForWidth1) {
  const Module m = scan_module({10}, 2, 2, 3);
  EXPECT_EQ(pareto_width(m, 1), 1);
}

TEST(TestTimeTable, MatchesDirectComputation) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 8);
  for (int c = 0; c < soc.core_count(); ++c) {
    for (int w = 1; w <= 8; ++w) {
      EXPECT_EQ(table.intest(c, w),
                intest_time(soc.modules[static_cast<std::size_t>(c)], w))
          << "core " << c << " w=" << w;
      EXPECT_EQ(table.woc_shift(c, w),
                si_woc_shift(soc.modules[static_cast<std::size_t>(c)], w));
    }
  }
}

TEST(TestTimeTable, ClampsWidthsAboveMax) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 4);
  EXPECT_EQ(table.intest(0, 100), table.intest(0, 4));
}

TEST(TestTimeTable, WocShiftUsesRealWidthBeyondMax) {
  const Soc soc = load_benchmark("mini5");
  const TestTimeTable table(soc, 2);
  // woc_shift is a pure ceil; it must not clamp.
  EXPECT_EQ(table.woc_shift(0, 10),
            si_woc_shift(soc.modules[0], 10));
}

TEST(TestTimeTable, OneTableAtTheLargestWidthServesEverySmallerOne) {
  // run_sweep and run_protocol build one table per SOC, at the largest
  // width of the sweep, and score every smaller width with it. That is
  // exact because a table at W_max holds each smaller width's entries as
  // a table at that width computes them: for every embedded SOC and every
  // W <= 64, both agree on every core and every width 1..W.
  for (const std::string& name : benchmark_names()) {
    const Soc soc = load_benchmark(name);
    const TestTimeTable widest(soc, 64);
    for (int w_max = 1; w_max <= 64; ++w_max) {
      const TestTimeTable table(soc, w_max);
      for (int c = 0; c < soc.core_count(); ++c) {
        for (int w = 1; w <= w_max; ++w) {
          ASSERT_EQ(widest.intest(c, w), table.intest(c, w))
              << name << " W=" << w_max << " core " << c << " w=" << w;
          ASSERT_EQ(widest.woc_shift(c, w), table.woc_shift(c, w))
              << name << " W=" << w_max << " core " << c << " w=" << w;
        }
      }
    }
  }
}

TEST(TestTimeTable, RowsFilledLaterInAnyOrderMatchTheConstructor) {
  const Soc soc = load_benchmark("p93791");
  const TestTimeTable built(soc, 16);
  TestTimeTable rows(soc, 16, TestTimeTable::kRowsLater);
  for (int c = soc.core_count() - 1; c >= 0; --c) rows.fill_row(soc, c);
  for (int c = 0; c < soc.core_count(); ++c) {
    for (int w = 1; w <= 20; ++w) {
      EXPECT_EQ(rows.intest(c, w), built.intest(c, w));
      EXPECT_EQ(rows.woc_shift(c, w), built.woc_shift(c, w));
    }
  }
  EXPECT_THROW(rows.fill_row(soc, soc.core_count()), std::logic_error);
}

TEST(TestTimeTable, RejectsBadArguments) {
  const Soc soc = load_benchmark("mini5");
  EXPECT_THROW(TestTimeTable(soc, 0), std::invalid_argument);
  const TestTimeTable table(soc, 4);
  EXPECT_THROW((void)table.intest(-1, 1), std::logic_error);
  EXPECT_THROW((void)table.intest(99, 1), std::logic_error);
  EXPECT_THROW((void)table.intest(0, 0), std::logic_error);
}

}  // namespace
}  // namespace sitam

namespace sitam {
namespace {

TEST(ExtestShortsOpens, ClosedForm) {
  const Soc soc = load_benchmark("p93791");  // total_woc = 2643
  // T = (4+1)*ceil(2643/16) + 8.
  EXPECT_EQ(extest_shorts_opens_time(soc, 16),
            5 * ((soc.total_woc() + 15) / 16) + 8);
}

TEST(ExtestShortsOpens, NegligibleNextToInTest) {
  // The paper's premise: classic shorts/opens ExTest is orders of
  // magnitude below InTest, which is why prior work ignored ExTest.
  const Soc soc = load_benchmark("p93791");
  const std::int64_t extest = extest_shorts_opens_time(soc, 16);
  // TR-Architect InTest at W=16 is ~1.77M cc; basic ExTest < 0.1% of it.
  EXPECT_LT(extest * 1000, 1768898);
}

TEST(ExtestShortsOpens, RejectsBadInput) {
  const Soc soc = load_benchmark("mini5");
  EXPECT_THROW((void)extest_shorts_opens_time(soc, 0),
               std::invalid_argument);
  EXPECT_THROW((void)extest_shorts_opens_time(soc, 8, -1),
               std::invalid_argument);
}

}  // namespace
}  // namespace sitam
