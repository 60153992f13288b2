// Differential property tests for the incremental DeltaEvaluator: drive
// randomized move sequences (core moved between rails, width change, rail
// merge/split) over synthesized SOCs and the ITC'02 models and assert that
// the delta path equals the full ScheduleSITest result — total times,
// per-rail times, InTest slots, schedule items and bottleneck TAM ids —
// at every single step, including the forced-fallback paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "core/flow.h"
#include "soc/benchmarks.h"
#include "soc/synth.h"
#include "tam/architecture.h"
#include "tam/delta.h"
#include "tam/evaluator.h"
#include "tam/verify.h"
#include "util/rng.h"

namespace sitam {
namespace {

TamArchitecture round_robin(int cores, int w_max) {
  const int rails = std::min(cores, w_max);
  TamArchitecture arch;
  arch.rails.resize(static_cast<std::size_t>(rails));
  for (int c = 0; c < cores; ++c) {
    arch.rails[static_cast<std::size_t>(c % rails)].cores.push_back(c);
  }
  for (int r = 0; r < rails; ++r) {
    arch.rails[static_cast<std::size_t>(r)].width =
        w_max / rails + (r < w_max % rails ? 1 : 0);
  }
  return arch;
}

/// One random move: 0 = move a core, 1 = move a wire (width change),
/// 2 = split a rail, 3 = merge two rails. Returns false when the drawn
/// move does not apply to the current architecture (caller retries).
/// Core movement goes through the TestRail mutation helpers — the same
/// route the optimizers use — which keeps the incremental rail hash caches
/// warm and exercises their O(1) maintenance under the delta evaluator's
/// DCHECK cross-checks.
bool apply_move(TamArchitecture& arch, Rng& rng) {
  const auto rail_count = arch.rails.size();
  switch (rng.below(4)) {
    case 0: {
      if (rail_count < 2) return false;
      const auto from = static_cast<std::size_t>(rng.below(rail_count));
      if (arch.rails[from].cores.size() < 2) return false;
      auto to = static_cast<std::size_t>(rng.below(rail_count - 1));
      if (to >= from) ++to;
      const auto pick = static_cast<std::size_t>(
          rng.below(arch.rails[from].cores.size()));
      const int core = arch.rails[from].cores[pick];
      arch.rails[from].erase_core(core);
      arch.rails[to].insert_core(core);
      return true;
    }
    case 1: {
      if (rail_count < 2) return false;
      const auto from = static_cast<std::size_t>(rng.below(rail_count));
      if (arch.rails[from].width < 2) return false;
      auto to = static_cast<std::size_t>(rng.below(rail_count - 1));
      if (to >= from) ++to;
      --arch.rails[from].width;
      ++arch.rails[to].width;
      return true;
    }
    case 2: {
      const auto target = static_cast<std::size_t>(rng.below(rail_count));
      TestRail& from = arch.rails[target];
      if (from.width < 2 || from.cores.size() < 2) return false;
      TestRail fresh;
      fresh.width = 1 + static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(from.width - 1)));
      from.width -= fresh.width;
      const std::uint64_t moved = 1 + rng.below(from.cores.size() - 1);
      for (std::uint64_t i = 0; i < moved; ++i) {
        const auto pick =
            static_cast<std::size_t>(rng.below(from.cores.size()));
        const int core = from.cores[pick];
        fresh.insert_core(core);
        from.erase_core(core);
      }
      arch.rails.push_back(std::move(fresh));
      return true;
    }
    default: {
      if (rail_count < 2) return false;
      const auto a = static_cast<std::size_t>(rng.below(rail_count));
      auto b = static_cast<std::size_t>(rng.below(rail_count - 1));
      if (b >= a) ++b;
      TestRail merged = arch.rails[a];
      merged.merge_cores_from(arch.rails[b]);
      merged.width = arch.rails[a].width + arch.rails[b].width;
      const auto hi = std::max(a, b);
      const auto lo = std::min(a, b);
      arch.rails.erase(arch.rails.begin() + static_cast<std::ptrdiff_t>(hi));
      arch.rails.erase(arch.rails.begin() + static_cast<std::ptrdiff_t>(lo));
      arch.rails.push_back(std::move(merged));
      return true;
    }
  }
}

struct Workbench {
  Soc soc;
  TestTimeTable table;
  SiTestSet tests;

  Workbench(Soc s, int parts, std::int64_t patterns, int max_width)
      : soc(std::move(s)), table(soc, max_width) {
    SiWorkloadConfig config;
    config.pattern_count = patterns;
    config.groupings = {parts};
    tests = SiWorkload::prepare(soc, config).tests(parts);
  }
};

Workbench bench_for(const std::string& name) {
  if (name == "synth12") {
    SynthSocConfig config;
    config.cores = 12;
    Rng rng(0xde17a1ULL);
    return Workbench(generate_soc(config, rng), 4, 400, 24);
  }
  return Workbench(load_benchmark(name), 4, name == "d695" ? 400 : 200, 24);
}

/// Draws random moves until one applies. Some move kinds need a second
/// rail, spare width or spare cores, so individual draws may be rejected;
/// any architecture with >= 2 cores and >= 2 wires always admits at least
/// one move kind, so a bounded retry loop always terminates.
void apply_some_move(TamArchitecture& arch, Rng& rng) {
  for (int attempt = 0; attempt < 1024; ++attempt) {
    if (apply_move(arch, rng)) return;
  }
  FAIL() << "no applicable move for " << arch.describe();
}

/// Runs `steps` random moves, checking delta == reference at every step.
void drive(const Workbench& wb, const EvaluatorOptions& options,
           const DeltaOptions& delta_options, std::uint64_t seed, int steps,
           int w_max, DeltaBreakdown* breakdown_out = nullptr,
           EvaluatorStats* stats_out = nullptr) {
  const TamEvaluator evaluator(wb.soc, wb.table, wb.tests, options);
  DeltaEvaluator delta(evaluator, delta_options);
  Rng rng(seed);
  TamArchitecture arch = round_robin(wb.soc.core_count(), w_max);

  for (int step = 0; step <= steps; ++step) {
    if (step > 0) {
      ASSERT_NO_FATAL_FAILURE(apply_some_move(arch, rng));
    }
    arch.validate(wb.soc.core_count());

    const Evaluation& patched = delta.evaluate(arch);
    const Evaluation reference = evaluator.evaluate_reference(arch);
    const auto mismatches = verify_delta_consistency(patched, reference);
    ASSERT_TRUE(mismatches.empty())
        << "step " << step << ": " << mismatches.front();
    // The patched result must also be a valid schedule in its own right.
    const auto violations = verify_evaluation(wb.soc, wb.table, wb.tests,
                                              arch, patched, options);
    ASSERT_TRUE(violations.empty())
        << "step " << step << ": " << violations.front();
  }
  if (breakdown_out != nullptr) *breakdown_out = delta.breakdown();
  if (stats_out != nullptr) *stats_out = delta.stats();
}

class DeltaDifferentialTest : public ::testing::TestWithParam<const char*> {};

TEST_P(DeltaDifferentialTest, RandomMoveSequenceMatchesFullEvaluation) {
  const Workbench wb = bench_for(GetParam());
  DeltaBreakdown breakdown;
  EvaluatorStats stats;
  drive(wb, EvaluatorOptions{}, DeltaOptions{}, 0x5eedULL, 120, 16,
        &breakdown, &stats);
  // The workload is move-shaped, so the delta path must carry some of it.
  EXPECT_GT(breakdown.delta_hits, 0);
  EXPECT_EQ(stats.cache_hits, 0);
  EXPECT_EQ(stats.delta_hits + stats.cache_misses, stats.evaluations);
  const auto stat_problems = verify_stats(stats);
  EXPECT_TRUE(stat_problems.empty()) << stat_problems.front();
}

TEST_P(DeltaDifferentialTest, SchedulingOptionVariants) {
  const Workbench wb = bench_for(GetParam());
  std::int64_t max_power = 0;
  for (const SiTestGroup& g : wb.tests.groups) {
    max_power = std::max(max_power, g.power);
  }
  std::vector<EvaluatorOptions> variants;
  {
    EvaluatorOptions shortest;
    shortest.pick = SchedulePick::kShortestFirst;
    variants.push_back(shortest);
    EvaluatorOptions input_order;
    input_order.pick = SchedulePick::kInputOrder;
    variants.push_back(input_order);
    EvaluatorOptions interleaved;
    interleaved.interleave_phases = true;
    variants.push_back(interleaved);
    EvaluatorOptions bus;
    bus.style = ArchitectureStyle::kTestBus;
    variants.push_back(bus);
    // Tight enough to serialize some groups, loose enough that every group
    // can still be scheduled on its own.
    EvaluatorOptions powered;
    powered.power_budget = max_power + max_power / 2;
    variants.push_back(powered);
    EvaluatorOptions serial_bus;
    serial_bus.exclusive_bus = true;
    variants.push_back(serial_bus);
  }
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SCOPED_TRACE("variant " + std::to_string(v));
    drive(wb, variants[v], DeltaOptions{}, 0xbeef00ULL + v, 60, 16);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, DeltaDifferentialTest,
                         ::testing::Values("synth12", "d695", "p34392"));

TEST(DeltaEvaluatorFallbacks, ZeroDirtyBudgetForcesFullPath) {
  const Workbench wb = bench_for("d695");
  DeltaOptions never;
  never.max_dirty_rails = 0;
  DeltaBreakdown breakdown;
  EvaluatorStats stats;
  drive(wb, EvaluatorOptions{}, never, 0xfa11ULL, 60, 16, &breakdown,
        &stats);
  // Every move dirties at least one rail, so the path must always fall
  // back — and still be correct (checked inside drive()).
  EXPECT_EQ(breakdown.delta_hits, 0);
  EXPECT_GT(breakdown.dirty_fallbacks, 0);
  EXPECT_EQ(stats.delta_hits, 0);
}

TEST(DeltaEvaluatorFallbacks, WholeArchitectureJumpsFallBack) {
  const Workbench wb = bench_for("d695");
  const TamEvaluator evaluator(wb.soc, wb.table, wb.tests);
  DeltaEvaluator delta(evaluator);
  Rng rng(0x1ab5ULL);
  // Fresh random partitions (not moves): nearly every rail is dirty, so
  // the dirty-rail budget rejects the patch path.
  for (int round = 0; round < 12; ++round) {
    std::vector<int> order(static_cast<std::size_t>(wb.soc.core_count()));
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int>(i);
    }
    rng.shuffle(order);
    TamArchitecture arch;
    arch.rails.resize(4);
    for (std::size_t i = 0; i < order.size(); ++i) {
      arch.rails[i % 4].cores.push_back(order[i]);
    }
    for (std::size_t r = 0; r < 4; ++r) {
      std::sort(arch.rails[r].cores.begin(), arch.rails[r].cores.end());
      arch.rails[r].width = 4;
    }
    arch.validate(wb.soc.core_count());
    const Evaluation& patched = delta.evaluate(arch);
    const auto mismatches = verify_delta_consistency(
        patched, evaluator.evaluate_reference(arch));
    ASSERT_TRUE(mismatches.empty()) << mismatches.front();
  }
  EXPECT_GT(delta.breakdown().dirty_fallbacks + delta.breakdown().rebases,
            0);
}

TEST(DeltaEvaluatorFallbacks, OrderInvalidationIsResortedInPlace) {
  // Two groups whose durations swap when one core moves between rails of
  // different widths: longest-first ordering flips, which must be detected
  // and the cached pick order re-sorted in place (not silently replayed in
  // a stale order, and not abandoned to a full evaluation either).
  const Workbench wb = bench_for("d695");
  const TamEvaluator evaluator(wb.soc, wb.table, wb.tests);
  DeltaEvaluator delta(evaluator);
  Rng rng(0x0bdeULL);
  TamArchitecture arch = round_robin(wb.soc.core_count(), 16);
  std::int64_t resorts_seen = 0;
  for (int step = 0; step < 200; ++step) {
    if (!apply_move(arch, rng)) continue;
    const Evaluation& patched = delta.evaluate(arch);
    if (delta.breakdown().order_resorts > resorts_seen) {
      // The step that re-sorted must still agree with the full evaluator.
      const auto mismatches = verify_delta_consistency(
          patched, evaluator.evaluate_reference(arch));
      ASSERT_TRUE(mismatches.empty()) << mismatches.front();
    }
    resorts_seen = delta.breakdown().order_resorts;
  }
  // Move sequences long enough always reshuffle the longest-first order at
  // least once; the counter proves the re-sort path ran.
  EXPECT_GT(resorts_seen, 0);
}

TEST(DeltaEvaluatorState, InvalidateDropsTheBase) {
  const Workbench wb = bench_for("d695");
  const TamEvaluator evaluator(wb.soc, wb.table, wb.tests);
  DeltaEvaluator delta(evaluator);
  const TamArchitecture arch = round_robin(wb.soc.core_count(), 16);
  (void)delta.evaluate(arch);
  const std::int64_t no_base_before = delta.breakdown().no_base;
  delta.invalidate();
  (void)delta.evaluate(arch);
  EXPECT_EQ(delta.breakdown().no_base, no_base_before + 1);
}

}  // namespace
}  // namespace sitam
