// Vertical SI test compaction: pattern-count reduction (§3).
//
// Finding the minimum compacted set is the NP-complete clique covering
// problem on the pattern-compatibility graph. Every solver here runs on one
// first-fit kernel over compacted patterns ("classes"), held transposed in
// blocks of 64: per used terminal four masks — one per cared value,
// "classes incompatible with this value here" — plus a mask per bus line
// and per (line, driver) pair. Placing a candidate ORs one mask word per
// care bit (and `line & ~driver` per bus bit) into a block's conflict word;
// the lowest zero bit is its class, tested 64 classes at a time.
//
// The kernel is a chain of class-range stages. Stage s owns classes
// [s·S, (s+1)·S), S = kCompactionStageClasses (12 blocks of 64): it places
// each candidate in its first compatible class, opens its next class while
// it has one left, and once all its classes are open forwards each
// candidate it rejects, in order, to stage s + 1 (created by the first
// forward). A stage holds its blocks strip-major — per strip of four
// blocks one slab of rows, each row's four words contiguous — so a new row
// is an append, one pass over a candidate's rows fills four conflict words
// (stopping once all four are full), and a stage's masks stay within one
// core's L2: 0.8–0.9 MB with every terminal of p34392 or p93791 in use.
// S was chosen by timing stage widths of 4 to 24 blocks (DESIGN §9).
//
// The chain is exact. A candidate reaches stage s iff every class below
// s·S rejected it, and stage s sees those candidates in input order, so
// each stage's classes hold exactly what they hold in one serial pass: the
// class counts and the materialized patterns are those of the serial
// kernel, byte for byte, whatever runs the stages.
//
// Stage 0 numbers the rows: a terminal, line or pair gets its rows the
// first time a candidate uses it, and each forwarded candidate carries its
// row ids, so later stages never read a pattern. A sweep of C classes over
// U used terminals, B used bus lines and P ≤ B·D distinct (line, driver)
// pairs holds ⌈C/64⌉ × (4·U + B + P) words (rounded up to whole strips),
// independent of the declared terminal space, plus the forwarded row lists
// in flight, each freed once the next stage has placed it. Nothing reads a
// care list in order, so the kernel takes PatternViews of unsorted store
// patterns and of SiPatterns alike.
//
// Input arrives in chunks: a RawPatternStore chunk, or one of
// ⌈n / RawPatternStore::kChunkPatterns⌉ equal slices of a member list. On
// a pool the unit of work is one (stage, chunk) task, started as a
// continuation once (stage, chunk − 1) and (stage − 1, chunk) are done, so
// stages run side by side on different chunks and no task waits on
// another; tasks synchronize once per (stage, chunk), never per pattern.
// On one thread the same tasks run in (chunk, stage) order.
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
//    start_greedy_count is the same count as stage tasks on an Executor.
//
//  * compact_first_fit — a classical clique-cover approximation:
//    Welsh-Powell-style first-fit coloring of the conflict graph. The same
//    kernel, fed in descending density (care bits + bus bits, keys
//    precomputed once) instead of index order. Since unsorted first-fit is
//    the greedy sweep, the density ordering is what makes this a distinct
//    reference point; §3 reports that the two compact comparably.
//
// The byte-identity oracle for compact_greedy, the historical sparse sweep,
// lives with the tests (tests/compaction_oracle.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <span>
#include <vector>

#include "pattern/pattern.h"
#include "pattern/raw_store.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace sitam {

/// Classes per stage of the first-fit kernel (12 blocks of 64; see the
/// header comment).
inline constexpr std::size_t kCompactionStageClasses = 12 * 64;

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
  /// Accepted for API compatibility; must be >= 1. compact_greedy runs its
  /// stages on the caller, so this changes neither the output nor the
  /// speed. Kept only because bench/e2e still sets it (ROADMAP item 7 (g)).
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

/// compact_greedy_count over the `members` of `patterns`, run as (stage,
/// chunk) tasks on `executor`. On a pool it returns at once; on one thread
/// (executor.size() == 1) the count runs before it returns. The future
/// holds the count or the first exception a task threw (an id outside the
/// declared space, or sitam::Cancelled: `cancel` is checked before every
/// task); its get() and wait() return only once every task has returned,
/// so `patterns` and `members` must outlive that wait. Dimensions,
/// members and `cancel` are also checked before anything starts, and
/// throw here. A non-null `span` names a trace span over the whole count
/// (arg: the patterns placed), closed on the thread that finishes it.
[[nodiscard]] std::future<std::size_t> start_greedy_count(
    std::span<const PatternView> patterns,
    std::span<const std::uint32_t> members, int total_terminals,
    int bus_width, Executor& executor, const CancelToken* cancel = nullptr,
    const char* span = nullptr);

/// The same over every pattern of `store`, in store order. On a pool one
/// task waits for each chunk as the store publishes it and queues it for
/// stage 0, so this may start before the store is written, and the
/// future's wait ends once the store is closed and every chunk is placed.
/// On one thread the store must already be closed.
[[nodiscard]] std::future<std::size_t> start_greedy_count(
    const RawPatternStore& store, int total_terminals, int bus_width,
    Executor& executor, const CancelToken* cancel = nullptr,
    const char* span = nullptr);

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
