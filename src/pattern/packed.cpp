#include "pattern/packed.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "util/check.h"

namespace sitam {

namespace {

[[noreturn]] void throw_terminal_out_of_range(int terminal) {
  throw std::out_of_range("compaction: terminal id " +
                          std::to_string(terminal) +
                          " outside declared terminal space");
}

[[noreturn]] void throw_bus_out_of_range(int line) {
  throw std::out_of_range("compaction: bus line " + std::to_string(line) +
                          " outside declared bus width");
}

}  // namespace

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
      header.uniform_driver = header.uniform_driver == kNoBusDriver ||
                                      header.uniform_driver == bit.driver_core
                                  ? bit.driver_core
                                  : kMixedBusDrivers;
    }
    bus_begin_.push_back(static_cast<std::uint32_t>(bus_bits_.size()));
    if (bus_words > 0) header.bus_word0 = bus_masks_[i * bus_words];
    headers_.push_back(header);
  }
}

bool PackedPatternSet::compatible(std::size_t i, std::size_t j) const {
  if ((headers_[i].summary & headers_[j].summary) != 0) {
    // Two-pointer walk over the sorted slot lists; only equal words can
    // conflict.
    const auto a = slots(i);
    const auto b = slots(j);
    std::size_t x = 0;
    std::size_t y = 0;
    while (x < a.size() && y < b.size()) {
      if (a[x].word < b[y].word) {
        ++x;
      } else if (a[x].word > b[y].word) {
        ++y;
      } else {
        const std::uint64_t both = a[x].care & b[y].care;
        if ((both & ((a[x].value ^ b[y].value) |
                     (a[x].active ^ b[y].active))) != 0) {
          return false;
        }
        ++x;
        ++y;
      }
    }
  }

  const auto mask_a = bus_mask(i);
  const auto mask_b = bus_mask(j);
  std::uint64_t overlap = 0;
  for (std::size_t w = 0; w < mask_a.size(); ++w) {
    overlap |= mask_a[w] & mask_b[w];
  }
  if (overlap == 0) return true;
  const int da = headers_[i].uniform_driver;
  if (da >= 0 && da == headers_[j].uniform_driver) return true;
  // Rare path: shared lines with non-uniform drivers — resolve through the
  // sorted disambiguation tables.
  const auto bus_a = bus_bits(i);
  const auto bus_b = bus_bits(j);
  std::size_t x = 0;
  std::size_t y = 0;
  while (x < bus_a.size() && y < bus_b.size()) {
    if (bus_a[x].line < bus_b[y].line) {
      ++x;
    } else if (bus_a[x].line > bus_b[y].line) {
      ++y;
    } else {
      if (bus_a[x].driver_core != bus_b[y].driver_core) return false;
      ++x;
      ++y;
    }
  }
  return true;
}

PackedSweepIndex::PackedSweepIndex(const PackedPatternSet& set)
    : set_(&set), records_(set.size()) {
  for (std::size_t i = 0; i < set.size(); ++i) {
    const PackedHeader& h = set.header(i);
    const std::span<const PackedSlot> slots = set.slots(i);
    Record& r = records_[i];
    std::uint64_t* const care[4] = {&r.care0, &r.care1, &r.care2, &r.care3};
    std::uint64_t* const value[4] = {&r.value0, &r.value1, &r.value2,
                                     &r.value3};
    std::uint64_t* const active[4] = {&r.active0, &r.active1, &r.active2,
                                      &r.active3};
    std::size_t inlined = 0;
    while (inlined < slots.size() && inlined < 4 &&
           slots[inlined].word <= 0xffffu) {
      const PackedSlot& s = slots[inlined];
      *care[inlined] = s.care;
      *value[inlined] = s.value;
      *active[inlined] = s.active;
      r.word[inlined] = static_cast<std::uint16_t>(s.word);
      ++inlined;
    }
    r.rest_begin = h.slot_begin + static_cast<std::uint32_t>(inlined);
    r.slot_end = h.slot_end;
    r.bus_word0 = h.bus_word0;
    r.uniform_driver = h.uniform_driver;
  }
}

PackedAccumulator::PackedAccumulator(PackedLayout layout)
    : layout_(layout),
      planes_(std::max<std::size_t>(
          1, static_cast<std::size_t>(layout.signal_words()))),
      bus_mask_(static_cast<std::size_t>(layout.bus_words()), 0),
      bus_driver_(static_cast<std::size_t>(layout.bus_width), 0),
      bus_epoch_(static_cast<std::size_t>(layout.bus_width), 0) {}

void PackedAccumulator::reset() {
  // The planes are a few hundred bytes — clearing them beats bookkeeping.
  // The per-line driver ids are invalidated wholesale by the epoch bump.
  std::fill(planes_.begin(), planes_.end(), PlaneWord{});
  std::fill(bus_mask_.begin(), bus_mask_.end(), 0);
  summary_ = 0;
  bus0_ = 0;
  ++epoch_;
  driver_state_ = kNoBusDriver;
}

bool PackedAccumulator::fits(const PackedPatternSet& set,
                             std::size_t i) const {
  SITAM_DCHECK(set.layout() == layout_);
  // The header consolidates everything the overwhelmingly common reject/
  // accept decisions need into one cache line per candidate.
  const PackedHeader& h = set.header(i);
  if ((h.summary & summary_) != 0) {
    const PackedSlot* const s = set.slot_data() + h.slot_begin;
    const PackedSlot* const end = set.slot_data() + h.slot_end;
    if (packed_slots_conflict(s, end, planes_.data())) return false;
  }
  return fits_bus(set, i, h.bus_word0, h.uniform_driver);
}

bool PackedAccumulator::fits_bus(const PackedPatternSet& set, std::size_t i,
                                 std::uint64_t bus_word0,
                                 std::int32_t uniform_driver) const {
  std::uint64_t overlap = bus_word0 & bus0_;
  if (bus_mask_.size() > 1) {
    const auto mask = set.bus_mask(i);
    for (std::size_t w = 1; w < mask.size(); ++w) {
      overlap |= mask[w] & bus_mask_[w];
    }
  }
  if (overlap == 0) return true;
  if (uniform_driver >= 0 && uniform_driver == driver_state_) return true;
  for (const BusBit& bit : set.bus_bits(i)) {
    const auto line = static_cast<std::size_t>(bit.line);
    if (bus_epoch_[line] == epoch_ && bus_driver_[line] != bit.driver_core) {
      return false;
    }
  }
  return true;
}

void PackedAccumulator::absorb(const PackedPatternSet& set, std::size_t i) {
  SITAM_DCHECK_MSG(fits(set, i), "absorb precondition violated");
  for (const PackedSlot& s : set.slots(i)) {
    // Canonical slots (value/active ⊆ care) make plain ORs correct: on
    // shared care bits fits() guarantees equality.
    PlaneWord& p = planes_[s.word];
    p.care |= s.care;
    p.value |= s.value;
    p.active |= s.active;
  }
  summary_ |= set.summary(i);

  const auto mask = set.bus_mask(i);
  for (std::size_t w = 0; w < mask.size(); ++w) bus_mask_[w] |= mask[w];
  if (!bus_mask_.empty()) bus0_ = bus_mask_[0];
  for (const BusBit& bit : set.bus_bits(i)) {
    const auto line = static_cast<std::size_t>(bit.line);
    if (bus_epoch_[line] != epoch_) {
      bus_epoch_[line] = epoch_;
      bus_driver_[line] = bit.driver_core;
    }
  }
  const int candidate_driver = set.uniform_driver(i);
  if (candidate_driver != kNoBusDriver) {
    driver_state_ = driver_state_ == kNoBusDriver ||
                            driver_state_ == candidate_driver
                        ? candidate_driver
                        : kMixedBusDrivers;
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
    const auto line = static_cast<std::size_t>(bit.line);
    // Occupancy is a subset of ours, so the line's driver entry is current.
    SITAM_DCHECK(bus_epoch_[line] == epoch_);
    if (bus_driver_[line] != bit.driver_core) return false;
  }
  return true;
}

SiPattern PackedAccumulator::to_pattern() const {
  SiPattern p;
  for (std::size_t w = 0; w < planes_.size(); ++w) {
    std::uint64_t remaining = planes_[w].care;
    while (remaining != 0) {
      const int bit = std::countr_zero(remaining);
      remaining &= remaining - 1;
      const int terminal = static_cast<int>(w * 64) + bit;
      const bool value = ((planes_[w].value >> bit) & 1u) != 0;
      const bool active = ((planes_[w].active >> bit) & 1u) != 0;
      p.set(terminal, decode_planes(value, active));
    }
  }
  for (std::size_t w = 0; w < bus_mask_.size(); ++w) {
    std::uint64_t remaining = bus_mask_[w];
    while (remaining != 0) {
      const int bit = std::countr_zero(remaining);
      remaining &= remaining - 1;
      const auto line = w * 64 + static_cast<std::size_t>(bit);
      SITAM_DCHECK(bus_epoch_[line] == epoch_);
      p.set_bus(static_cast<int>(line), bus_driver_[line]);
    }
  }
  return p;
}

}  // namespace sitam
