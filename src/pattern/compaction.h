// Vertical SI test compaction: pattern-count reduction (§3).
//
// Finding the minimum compacted set is the NP-complete clique covering
// problem on the pattern-compatibility graph. Both solvers run on one
// first-fit kernel over blocks of 64 compacted patterns ("classes"), held
// transposed: per used terminal, four masks — one per cared value, "classes
// incompatible with this value here" — plus a mask per bus line and per
// (line, driver) pair. Placing a candidate ORs one mask word per care bit
// (and `line & ~driver` per bus bit) into a block's conflict word; the
// lowest zero bit is its class, tested 64 classes at a time. The probe
// reads strips of four blocks at once (each row's four words are
// contiguous, so one pass over the rows fills four conflict words and
// stops once all four are full), then the fewer than four blocks left one
// at a time. A terminal, line or pair gets its masks when the first
// pattern using it is placed (the row order never reaches the output), so
// the kernel reads patterns as they arrive — a RawPatternStore chunk by
// chunk — and a call costs ⌈C/64⌉ × (4·U + B + P) words for C classes, U
// used terminals, B used bus lines and P ≤ B·D distinct (line, driver)
// pairs — independent of the declared terminal space (the block capacity
// starts at one and doubles). Nothing reads a care list in order, so the
// kernel takes PatternViews of unsorted store patterns and of SiPatterns
// alike.
//
//  * compact_greedy — the paper's heuristic: take the first uncompacted
//    pattern and merge every following compatible pattern into it, repeat.
//    Run as first-fit in index order, which is pointwise identical to the
//    sweep: class k of first-fit is exactly sweep round k (a pattern
//    reaches round k iff rounds 0..k-1 rejected it, and round k's
//    accumulator at pattern i is the union of its members before i). So
//    each candidate is placed once instead of re-probed every round.
//
//    compact_greedy_count runs the same sweep over a member list of a
//    larger set, or over a whole RawPatternStore as its chunks are
//    published, and returns only the class count: the 2-D compaction
//    (sitest) needs nothing else, and skips building the patterns.
//
//  * compact_first_fit — a classical clique-cover approximation:
//    Welsh-Powell-style first-fit coloring of the conflict graph. The same
//    kernel, fed in descending density (care bits + bus bits, keys
//    precomputed once) instead of index order. Since unsorted first-fit is
//    the greedy sweep, the density ordering is what makes this a distinct
//    reference point; §3 reports that the two compact comparably.
//
// compact_greedy_reference is the pre-packed sparse sweep, kept verbatim
// as the before/after baseline for BENCH_compaction.json and as the
// equivalence oracle in tests — compact_greedy must reproduce its output
// byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pattern/pattern.h"
#include "pattern/raw_store.h"
#include "util/cancel.h"

namespace sitam {

struct CompactionStats {
  std::size_t original_count = 0;
  std::size_t compacted_count = 0;
  double seconds = 0.0;

  [[nodiscard]] double ratio() const {
    return compacted_count == 0
               ? 0.0
               : static_cast<double>(original_count) /
                     static_cast<double>(compacted_count);
  }
};

struct CompactionResult {
  std::vector<SiPattern> patterns;
  CompactionStats stats;
};

/// Knobs for the greedy sweep.
struct CompactionConfig {
  /// Accepted for API compatibility; must be >= 1. The sweep is one serial
  /// first-fit pass, so this changes neither the output nor the speed.
  int threads = 1;
};

/// Paper's greedy sweep on the first-fit block kernel. `total_terminals`
/// and `bus_width` bound the ids (use TerminalSpace::total() and the bus
/// width; patterns with ids outside these ranges throw std::out_of_range,
/// checked in input order, each pattern's terminals before its bus lines).
/// Throws std::invalid_argument for negative dimensions or threads < 1.
[[nodiscard]] CompactionResult compact_greedy(
    std::span<const SiPattern> patterns, int total_terminals, int bus_width,
    const CompactionConfig& config = {});

/// Compacted count of the greedy sweep over the `members` of `patterns`
/// (indices, in sweep order): compact_greedy(those patterns, ...)
/// .patterns.size(), without building the compacted patterns. Same
/// dimension and id checks as compact_greedy, in member order; a member
/// outside `patterns` throws std::out_of_range.
[[nodiscard]] std::size_t compact_greedy_count(
    std::span<const PatternView> patterns,
    std::span<const std::uint32_t> members, int total_terminals,
    int bus_width);
[[nodiscard]] std::size_t compact_greedy_count(
    std::span<const SiPattern> patterns,
    std::span<const std::uint32_t> members, int total_terminals,
    int bus_width);

/// Compacted count of the greedy sweep over every pattern of `store`, in
/// store order. Places each chunk as soon as it is published, so it can
/// run on another thread while the store is being written; returns once
/// the store is closed and every chunk is placed. Same checks as
/// compact_greedy; `cancel` is checked before each chunk (nullptr = never
/// cancelled) and throws sitam::Cancelled.
[[nodiscard]] std::size_t compact_greedy_count(
    const RawPatternStore& store, int total_terminals, int bus_width,
    const CancelToken* cancel = nullptr);

/// The historical sparse-list sweep (per-care-bit checks against an
/// epoch-stamped dense accumulator). Frozen as the benchmark baseline and
/// the byte-identity oracle for compact_greedy; do not optimize.
[[nodiscard]] CompactionResult compact_greedy_reference(
    std::span<const SiPattern> patterns, int total_terminals, int bus_width);

/// First-fit clique-cover approximation (reference quality bar). Same
/// dimension and id checks as compact_greedy.
[[nodiscard]] CompactionResult compact_first_fit(
    std::span<const SiPattern> patterns, int total_terminals, int bus_width);

/// Verifies that `compacted` is a sound compaction of `original`: every
/// original pattern must be *covered by* (i.e. compatible with and contained
/// in) at least one compacted pattern. Returns the index of the first
/// uncovered original pattern, or -1 if all are covered. Runs on packed
/// subset checks with summary pruning. Used by tests and the compaction
/// study bench.
[[nodiscard]] std::ptrdiff_t first_uncovered(
    std::span<const SiPattern> original,
    std::span<const SiPattern> compacted);

}  // namespace sitam
