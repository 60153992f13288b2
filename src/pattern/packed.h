// Packed bit-plane representation of SI test patterns (§3 hot path).
//
// The sparse (terminal, value) lists of SiPattern are ideal for building
// patterns one assignment at a time, but vertical compaction spends its
// whole life asking one question — "can these two patterns coexist?" — tens
// of millions of times. This header packs the 5-valued alphabet of value.h
// into three 64-bit bit-planes over the terminal space so that question
// becomes a handful of word ops:
//
//   care   — bit t set iff terminal t carries a non-don't-care value.
//   value  — final-cycle level: set for kStable1 and kRise.
//   active — transition flag: set for kRise and kFall.
//
// Two patterns conflict on a terminal iff both care about it and either
// plane disagrees:  care_a & care_b & ((val_a^val_b) | (act_a^act_b)).
//
// Patterns are *word-compressed*: only the nonzero care words are
// materialized, as sorted (word index, care, value, active) slots — an SI
// pattern touches a handful of words out of dozens, and streaming 3 dense
// planes per pattern would turn the sweep memory-bound. A one-word summary
// (care-word occupancy OR-folded to 64 bits) rejects disjoint pairs in a
// single AND before any slot is read.
//
// The shared-bus postfix packs into an occupancy mask per pattern plus a
// per-driver disambiguation table: masks answer "any shared line?" in one
// AND, and the (rare) overlapping case resolves drivers through the sorted
// BusBit list — with a uniform-driver fast path, since generated patterns
// drive all their lines from the victim core.
//
// PackedAccumulator is the dense counterpart: full bit-planes for one
// growing compacted pattern (or one first-fit class), against which a
// word-compressed candidate is tested in O(slots).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pattern/pattern.h"
#include "pattern/value.h"
#include "util/check.h"

namespace sitam {

/// Sentinels for the per-pattern uniform-driver fast path.
inline constexpr int kNoBusDriver = -1;     ///< Pattern occupies no bus line.
inline constexpr int kMixedBusDrivers = -2; ///< Lines driven by >1 core.

/// Final-cycle level plane bit for `v` (kStable1 and kRise).
[[nodiscard]] constexpr std::uint64_t value_plane_bit(SigValue v) noexcept {
  return (v == SigValue::kStable1 || v == SigValue::kRise) ? 1u : 0u;
}

/// Transition plane bit for `v` (kRise and kFall).
[[nodiscard]] constexpr std::uint64_t active_plane_bit(SigValue v) noexcept {
  return is_transition(v) ? 1u : 0u;
}

/// Inverse of the (value, active) encoding for a cared-for terminal.
[[nodiscard]] constexpr SigValue decode_planes(bool value,
                                               bool active) noexcept {
  if (active) return value ? SigValue::kRise : SigValue::kFall;
  return value ? SigValue::kStable1 : SigValue::kStable0;
}

/// Dimensions of the packed planes. Word counts are derived, not stored,
/// so a layout is two ints and can be passed by value.
struct PackedLayout {
  int total_terminals = 0;
  int bus_width = 0;

  [[nodiscard]] int signal_words() const noexcept {
    return (total_terminals + 63) / 64;
  }
  [[nodiscard]] int bus_words() const noexcept {
    return (bus_width + 63) / 64;
  }

  friend bool operator==(const PackedLayout&, const PackedLayout&) = default;
};

/// One nonzero 64-terminal chunk of a pattern's three signal planes.
struct PackedSlot {
  std::uint32_t word = 0;     ///< Plane word index (terminals [64w, 64w+64)).
  std::uint64_t care = 0;
  std::uint64_t value = 0;    ///< Canonical: value ⊆ care.
  std::uint64_t active = 0;   ///< Canonical: active ⊆ care.
};

/// Per-pattern hot metadata, consolidated into one 32-byte record so the
/// sweep's reject path touches a single cache line per candidate: the
/// folded care summary, bus occupancy word 0 (the whole mask for the
/// ubiquitous bus_width <= 64 case), the slot range, and the uniform
/// driver for the bus fast path.
struct PackedHeader {
  std::uint64_t summary = 0;
  std::uint64_t bus_word0 = 0;
  std::uint32_t slot_begin = 0;
  std::uint32_t slot_end = 0;
  std::int32_t uniform_driver = kNoBusDriver;
};

/// An immutable batch of patterns packed into word-compressed bit-planes.
///
/// Packing validates every terminal/bus id against the layout up front and
/// throws std::out_of_range (message-compatible with the historical lazy
/// checks of the sparse accumulator) — so the compaction entry points fail
/// on malformed input before any work is done.
class PackedPatternSet {
 public:
  /// Packs `patterns`; O(total assignments). Throws std::invalid_argument
  /// for negative layout dimensions, std::out_of_range for ids outside it.
  PackedPatternSet(std::span<const SiPattern> patterns, PackedLayout layout);

  [[nodiscard]] std::size_t size() const noexcept {
    return headers_.size();
  }
  [[nodiscard]] const PackedLayout& layout() const noexcept {
    return layout_;
  }

  /// Sorted nonzero plane chunks of pattern `i`.
  [[nodiscard]] std::span<const PackedSlot> slots(std::size_t i) const {
    return {slots_.data() + headers_[i].slot_begin,
            slots_.data() + headers_[i].slot_end};
  }
  /// Consolidated hot metadata of pattern `i`.
  [[nodiscard]] const PackedHeader& header(std::size_t i) const {
    return headers_[i];
  }
  /// Backing slot storage; index with header(i).slot_begin/slot_end.
  [[nodiscard]] const PackedSlot* slot_data() const noexcept {
    return slots_.data();
  }
  /// Care-word occupancy folded to one word: bit (w mod 64) is set iff
  /// care word w is nonzero. A zero AND of two summaries proves care
  /// disjointness (equal words fold to equal bits).
  [[nodiscard]] std::uint64_t summary(std::size_t i) const {
    return headers_[i].summary;
  }
  /// Bus occupancy mask words of pattern `i` (layout().bus_words() words).
  [[nodiscard]] std::span<const std::uint64_t> bus_mask(std::size_t i) const {
    const auto w = static_cast<std::size_t>(layout_.bus_words());
    return {bus_masks_.data() + i * w, w};
  }
  /// Sorted occupied bus lines with their drivers (disambiguation table).
  [[nodiscard]] std::span<const BusBit> bus_bits(std::size_t i) const {
    return {bus_bits_.data() + bus_begin_[i],
            bus_bits_.data() + bus_begin_[i + 1]};
  }
  /// Driver id if all of pattern `i`'s bus lines share one driver,
  /// kNoBusDriver if it has none, kMixedBusDrivers otherwise.
  [[nodiscard]] int uniform_driver(std::size_t i) const {
    return headers_[i].uniform_driver;
  }

  /// Word-parallel equivalent of SiPattern::compatible for two members.
  [[nodiscard]] bool compatible(std::size_t i, std::size_t j) const;

 private:
  PackedLayout layout_;
  std::vector<PackedSlot> slots_;           // concatenated, sorted per pattern
  std::vector<PackedHeader> headers_;       // one record per pattern
  std::vector<std::uint64_t> bus_masks_;    // size()*bus_words()
  std::vector<BusBit> bus_bits_;            // concatenated, sorted per pattern
  std::vector<std::uint32_t> bus_begin_;    // size()+1 prefix offsets
};

/// One terminal chunk of the accumulator's three planes, interleaved so a
/// probe of word w touches one ~cache-line-local record instead of three
/// parallel arrays.
struct PlaneWord {
  std::uint64_t care = 0;
  std::uint64_t value = 0;
  std::uint64_t active = 0;
};

/// Sweep-optimized mirror of a PackedPatternSet.
///
/// The greedy sweep rejects ~99.8% of the candidates it probes, and the
/// reject is decided by the candidate's first few slots: on the DAC'07
/// workloads 78% of signal rejects fire on slot 0 and 99.8% within the
/// first four. Walking the shared slot array for that answer costs a
/// dependent (and usually L2/L3-missing) load per candidate; this index
/// instead mirrors each pattern into a fixed 128-byte record — two cache
/// lines — with the first four slots inlined:
///
///   line 0: slots 0–1 planes, all four word indices, rest-of-slots range;
///   line 1: slots 2–3 planes, bus word 0, uniform driver.
///
/// Line 0 alone decides the dominant slot-0/1 rejects, both lines cover
/// everything up to slot 3, and only the rare denser pattern (or a fit)
/// falls through to the shared slot array at `rest_begin`. Records are
/// fixed-size, so the sweep can prefetch() candidates a fixed distance
/// ahead through an arbitrary alive-index list — the access pattern that
/// defeats hardware prefetchers.
///
/// Inlined word indices are 16-bit; the (astronomically large) layouts
/// whose word index overflows 16 bits simply inline fewer slots — the
/// record stays exact, the walk just starts earlier.
///
/// The index borrows the set (non-owning): it must not outlive it.
class PackedSweepIndex {
 public:
  /// One pattern's sweep record; see the class comment for the layout.
  struct alignas(64) Record {
    // line 0 — decides the dominant slot-0/1 rejects
    std::uint64_t care0 = 0, value0 = 0, active0 = 0;
    std::uint64_t care1 = 0, value1 = 0, active1 = 0;
    std::uint16_t word[4] = {0, 0, 0, 0};
    std::uint32_t rest_begin = 0;  ///< First slot not inlined below.
    std::uint32_t slot_end = 0;
    // line 1 — slots 2–3 and the bus fast-path fields
    std::uint64_t care2 = 0, value2 = 0, active2 = 0;
    std::uint64_t care3 = 0, value3 = 0, active3 = 0;
    std::uint64_t bus_word0 = 0;
    std::int32_t uniform_driver = kNoBusDriver;
    std::uint32_t reserved = 0;
  };
  static_assert(sizeof(Record) == 128);

  explicit PackedSweepIndex(const PackedPatternSet& set);

  [[nodiscard]] const PackedPatternSet& set() const noexcept { return *set_; }
  [[nodiscard]] std::size_t size() const noexcept { return records_.size(); }
  [[nodiscard]] const Record& record(std::size_t i) const {
    return records_[i];
  }

  /// Hints both cache lines of record `i` into cache; issue this a fixed
  /// distance ahead of the probe when sweeping an index list.
  void prefetch(std::size_t i) const noexcept {
#if defined(__GNUC__) || defined(__clang__)
    const char* p = reinterpret_cast<const char*>(&records_[i]);
    __builtin_prefetch(p);
    __builtin_prefetch(p + 64);
#else
    (void)i;
#endif
  }

 private:
  const PackedPatternSet* set_;
  std::vector<Record> records_;
};

/// Slot-span probe — the conflict formula over each word-compressed slot
/// against the dense planes. Inline so it folds straight into the sweep
/// loops.
[[nodiscard]] inline bool packed_slots_conflict(
    const PackedSlot* s, const PackedSlot* end, const PlaneWord* planes) {
  for (; s != end; ++s) {
    const PlaneWord& p = planes[s->word];
    if ((s->care & p.care &
         ((s->value ^ p.value) | (s->active ^ p.active))) != 0) {
      return true;
    }
  }
  return false;
}

/// Sweep-record probe: the two branch-free inlined slot pairs, then the
/// rest-of-slots walk. A missing inlined slot carries care 0 and word 0,
/// which reads planes[0] (always allocated) and conflicts never.
[[nodiscard]] inline bool packed_record_conflict(
    const PackedSweepIndex::Record& r, const PackedSlot* slot_base,
    const PlaneWord* planes) {
  const PlaneWord& p0 = planes[r.word[0]];
  const PlaneWord& p1 = planes[r.word[1]];
  if (((r.care0 & p0.care & ((r.value0 ^ p0.value) | (r.active0 ^ p0.active))) |
       (r.care1 & p1.care &
        ((r.value1 ^ p1.value) | (r.active1 ^ p1.active)))) != 0) {
    return true;
  }
  const PlaneWord& p2 = planes[r.word[2]];
  const PlaneWord& p3 = planes[r.word[3]];
  if (((r.care2 & p2.care & ((r.value2 ^ p2.value) | (r.active2 ^ p2.active))) |
       (r.care3 & p3.care &
        ((r.value3 ^ p3.value) | (r.active3 ^ p3.active)))) != 0) {
    return true;
  }
  return packed_slots_conflict(slot_base + r.rest_begin,
                               slot_base + r.slot_end, planes);
}

/// Dense bit-planes for one growing compacted pattern (or one first-fit
/// class). reset() is O(planes) — a few hundred bytes — while the bus
/// driver table is epoch-stamped so per-line driver ids never need
/// clearing across the thousands of sweep rounds.
///
/// fits() is const and touches no mutable state, so any number of threads
/// may probe one accumulator concurrently between mutations — that is the
/// contract the deterministic parallel sweep in compaction.cpp relies on.
class PackedAccumulator {
 public:
  explicit PackedAccumulator(PackedLayout layout);

  /// Starts a fresh compacted pattern.
  void reset();

  /// True iff member `i` of `set` can merge into the accumulated pattern.
  /// Precondition (checked in debug builds): set.layout() == layout().
  [[nodiscard]] bool fits(const PackedPatternSet& set, std::size_t i) const;

  /// Same decision as fits(set, i) via the sweep index's inlined records —
  /// the greedy sweep's hot path. Defined inline below so it folds into
  /// the sweep loop; the out-of-line bus tail handles the rare overlap.
  /// Precondition as above for index.set().
  [[nodiscard]] bool fits(const PackedSweepIndex& index, std::size_t i) const;

  /// Merges member `i` in. Precondition: fits(set, i).
  void absorb(const PackedPatternSet& set, std::size_t i);

  /// True iff member `i` of `set` is *contained* in the accumulated
  /// pattern: every care bit present with the same value and every bus
  /// line occupied by the same driver. The packed subset check behind
  /// first_uncovered().
  [[nodiscard]] bool contains(const PackedPatternSet& set,
                              std::size_t i) const;

  /// Folded care-word occupancy of the accumulated pattern; a candidate
  /// whose summary has bits outside it cannot be contained.
  [[nodiscard]] std::uint64_t summary() const noexcept { return summary_; }

  /// Materializes the accumulated pattern as a sparse SiPattern
  /// (terminals and bus lines emitted in ascending order, so the result
  /// is byte-identical to what the historical sparse accumulator built).
  [[nodiscard]] SiPattern to_pattern() const;

 private:
  /// Shared bus tail of both fits() overloads.
  [[nodiscard]] bool fits_bus(const PackedPatternSet& set, std::size_t i,
                              std::uint64_t bus_word0,
                              std::int32_t uniform_driver) const;

  PackedLayout layout_;
  // Interleaved planes (at least one word, so inlined probes of an empty
  // slot — care 0, word 0 — stay in bounds without a branch).
  std::vector<PlaneWord> planes_;
  std::uint64_t summary_ = 0;
  std::uint64_t bus0_ = 0;                 // mirror of bus_mask_[0] (hot path)
  std::vector<std::uint64_t> bus_mask_;
  std::vector<std::int32_t> bus_driver_;   // valid iff epoch matches
  std::vector<std::uint32_t> bus_epoch_;
  std::uint32_t epoch_ = 1;
  std::int32_t driver_state_ = kNoBusDriver;  // uniform-driver fast path
};

inline bool PackedAccumulator::fits(const PackedSweepIndex& index,
                                    std::size_t i) const {
  SITAM_DCHECK(index.set().layout() == layout_);
  const PackedSweepIndex::Record& r = index.record(i);
  const PackedPatternSet& set = index.set();
  if (packed_record_conflict(r, set.slot_data(), planes_.data())) {
    return false;
  }
  return fits_bus(set, i, r.bus_word0, r.uniform_driver);
}

}  // namespace sitam
