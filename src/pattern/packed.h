// Packed bit-plane representation of SI test patterns for the coverage
// check behind first_uncovered() (compaction.h).
//
// "Is original pattern o contained in compacted pattern c?" is asked for
// every (original, compacted) pair until one answers yes. This header packs
// the 5-valued alphabet of value.h into three 64-bit bit-planes over the
// terminal space so that question becomes a handful of word ops:
//
//   care   — bit t set iff terminal t carries a non-don't-care value.
//   value  — final-cycle level: set for kStable1 and kRise.
//   active — transition flag: set for kRise and kFall.
//
// Originals are *word-compressed*: only the nonzero care words are
// materialized, as sorted (word index, care, value, active) slots. A
// one-word summary (care-word occupancy OR-folded to 64 bits) rejects a
// pair in a single AND before any slot is read. Bus lines pack into an
// occupancy mask plus the sorted BusBit list for the driver check.
//
// PackedAccumulator is the dense counterpart: full bit-planes for one
// compacted pattern, against which a word-compressed original is tested in
// O(slots).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pattern/pattern.h"
#include "pattern/value.h"

namespace sitam {

/// Final-cycle level plane bit for `v` (kStable1 and kRise).
[[nodiscard]] constexpr std::uint64_t value_plane_bit(SigValue v) noexcept {
  return (v == SigValue::kStable1 || v == SigValue::kRise) ? 1u : 0u;
}

/// Transition plane bit for `v` (kRise and kFall).
[[nodiscard]] constexpr std::uint64_t active_plane_bit(SigValue v) noexcept {
  return is_transition(v) ? 1u : 0u;
}

/// Throw the std::out_of_range every compaction entry point reports for a
/// terminal id outside the declared terminal space / a bus line outside
/// the declared bus width.
[[noreturn]] void throw_terminal_out_of_range(int terminal);
[[noreturn]] void throw_bus_out_of_range(int line);

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

/// Per-pattern metadata: the folded care summary and the slot range.
struct PackedHeader {
  std::uint64_t summary = 0;
  std::uint32_t slot_begin = 0;
  std::uint32_t slot_end = 0;
};

/// An immutable batch of patterns packed into word-compressed bit-planes.
///
/// Packing validates every terminal/bus id against the layout up front and
/// throws std::out_of_range (message-compatible with the compaction
/// kernels' checks).
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

/// Dense bit-planes for one compacted pattern, built by absorbing members
/// of a PackedPatternSet.
class PackedAccumulator {
 public:
  explicit PackedAccumulator(PackedLayout layout);

  /// Merges member `i` in. Precondition: the member is compatible with
  /// what was absorbed before (first_uncovered absorbs one pattern).
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

 private:
  PackedLayout layout_;
  std::vector<PlaneWord> planes_;
  std::uint64_t summary_ = 0;
  std::vector<std::uint64_t> bus_mask_;
  std::vector<std::int32_t> bus_driver_;   // valid where bus_mask_ is set
};

}  // namespace sitam
