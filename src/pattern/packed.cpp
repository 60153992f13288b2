#include "pattern/packed.h"

#include <stdexcept>
#include <string>

#include "util/check.h"

namespace sitam {

void throw_terminal_out_of_range(int terminal) {
  throw std::out_of_range("compaction: terminal id " +
                          std::to_string(terminal) +
                          " outside declared terminal space");
}

[[noreturn]] void throw_bus_out_of_range(int line) {
  throw std::out_of_range("compaction: bus line " + std::to_string(line) +
                          " outside declared bus width");
}

PackedPatternSet::PackedPatternSet(std::span<const SiPattern> patterns,
                                   PackedLayout layout)
    : layout_(layout) {
  if (layout.total_terminals < 0 || layout.bus_width < 0) {
    throw std::invalid_argument("PackedPatternSet: negative dimensions");
  }
  const std::size_t n = patterns.size();
  const auto bus_words = static_cast<std::size_t>(layout.bus_words());
  headers_.reserve(n);
  bus_begin_.reserve(n + 1);
  bus_begin_.push_back(0);
  bus_masks_.assign(n * bus_words, 0);

  for (std::size_t i = 0; i < n; ++i) {
    const SiPattern& p = patterns[i];
    PackedHeader header;
    header.slot_begin = static_cast<std::uint32_t>(slots_.size());
    for (const auto& [terminal, value] : p.assignments()) {
      if (terminal >= layout.total_terminals) {
        throw_terminal_out_of_range(terminal);
      }
      const auto word = static_cast<std::uint32_t>(terminal) >> 6;
      const auto bit = static_cast<std::uint32_t>(terminal) & 63u;
      // assignments() is sorted by terminal, so slots arrive in word order
      // and a new word only ever extends the tail.
      if (slots_.size() == header.slot_begin || slots_.back().word != word) {
        slots_.push_back(PackedSlot{word, 0, 0, 0});
      }
      PackedSlot& slot = slots_.back();
      slot.care |= std::uint64_t{1} << bit;
      slot.value |= value_plane_bit(value) << bit;
      slot.active |= active_plane_bit(value) << bit;
      header.summary |= std::uint64_t{1} << (word & 63u);
    }
    header.slot_end = static_cast<std::uint32_t>(slots_.size());

    for (const BusBit& bit : p.bus_bits()) {
      if (bit.line >= layout.bus_width) throw_bus_out_of_range(bit.line);
      const auto line = static_cast<std::size_t>(bit.line);
      bus_masks_[i * bus_words + (line >> 6)] |= std::uint64_t{1}
                                                 << (line & 63u);
      bus_bits_.push_back(bit);
    }
    bus_begin_.push_back(static_cast<std::uint32_t>(bus_bits_.size()));
    headers_.push_back(header);
  }
}

PackedAccumulator::PackedAccumulator(PackedLayout layout)
    : layout_(layout),
      planes_(static_cast<std::size_t>(layout.signal_words())),
      bus_mask_(static_cast<std::size_t>(layout.bus_words()), 0),
      bus_driver_(static_cast<std::size_t>(layout.bus_width), 0) {}

void PackedAccumulator::absorb(const PackedPatternSet& set, std::size_t i) {
  SITAM_DCHECK(set.layout() == layout_);
  for (const PackedSlot& s : set.slots(i)) {
    // Canonical slots (value/active ⊆ care) make plain ORs correct on
    // compatible members.
    PlaneWord& p = planes_[s.word];
    p.care |= s.care;
    p.value |= s.value;
    p.active |= s.active;
  }
  summary_ |= set.summary(i);

  const auto mask = set.bus_mask(i);
  for (std::size_t w = 0; w < mask.size(); ++w) bus_mask_[w] |= mask[w];
  for (const BusBit& bit : set.bus_bits(i)) {
    bus_driver_[static_cast<std::size_t>(bit.line)] = bit.driver_core;
  }
}

bool PackedAccumulator::contains(const PackedPatternSet& set,
                                 std::size_t i) const {
  SITAM_DCHECK(set.layout() == layout_);
  for (const PackedSlot& s : set.slots(i)) {
    const PlaneWord& p = planes_[s.word];
    if ((s.care & ~p.care) != 0) return false;
    if ((s.care & ((s.value ^ p.value) | (s.active ^ p.active))) != 0) {
      return false;
    }
  }
  const auto mask = set.bus_mask(i);
  for (std::size_t w = 0; w < mask.size(); ++w) {
    if ((mask[w] & ~bus_mask_[w]) != 0) return false;
  }
  for (const BusBit& bit : set.bus_bits(i)) {
    // Occupancy is a subset of ours, so the line's driver entry is set.
    if (bus_driver_[static_cast<std::size_t>(bit.line)] != bit.driver_core) {
      return false;
    }
  }
  return true;
}

}  // namespace sitam
