// Sparse SI test pattern (one vector pair) plus the shared-bus postfix.
//
// Patterns assign values to a handful of driver-side terminals (the victim
// and its aggressors), so they are stored sparsely as sorted
// (terminal, value) lists. The bus postfix of Table 1 is a list of occupied
// bus lines; each occupied line remembers the core boundary that triggers
// it, because patterns driving the *same* bus line from *different* core
// boundaries must never be compacted together (§3).
//
// The sparse form is the mutation-friendly builder representation; the
// compaction kernel (compaction.h) tests a candidate against 64 compacted
// patterns per word op instead of a sorted-list walk per pair.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "interconnect/terminal_space.h"
#include "pattern/value.h"

namespace sitam {

/// One occupied shared-bus line in a pattern's postfix.
struct BusBit {
  int line = 0;         ///< Bus line index, 0-based.
  int driver_core = 0;  ///< Core boundary that triggers the line.

  friend bool operator==(const BusBit&, const BusBit&) = default;
};

class SiPattern {
 public:
  /// Assigns `value` to `terminal`; assigning kDontCare erases the entry.
  /// Throws std::invalid_argument for a negative terminal id.
  void set(int terminal, SigValue value);

  /// Value at `terminal` (kDontCare when unassigned).
  [[nodiscard]] SigValue at(int terminal) const;

  /// Marks bus `line` as occupied, triggered from `driver_core`.
  /// Re-marking with the same driver is idempotent; a different driver
  /// throws std::logic_error (a single pattern has one driver per line).
  void set_bus(int line, int driver_core);

  /// Replaces the whole pattern: `assignments` must hold strictly
  /// ascending, non-negative terminals with care values, `bus_bits`
  /// strictly ascending, non-negative lines. One copy per list, no search
  /// (the generator builds patterns this way). Throws
  /// std::invalid_argument otherwise, leaving the pattern unchanged.
  void assign(std::span<const std::pair<int, SigValue>> assignments,
              std::span<const BusBit> bus_bits);

  [[nodiscard]] std::span<const std::pair<int, SigValue>> assignments()
      const {
    return assignments_;
  }
  [[nodiscard]] std::span<const BusBit> bus_bits() const { return bus_bits_; }

  /// Number of assigned (non-don't-care) terminals.
  [[nodiscard]] int care_count() const {
    return static_cast<int>(assignments_.size());
  }
  [[nodiscard]] bool empty() const {
    return assignments_.empty() && bus_bits_.empty();
  }

  /// Sorted, de-duplicated list of cores whose wrapper boundaries this
  /// pattern loads: owners of assigned terminals plus bus drivers.
  [[nodiscard]] std::vector<int> care_cores(
      const TerminalSpace& terminals) const;

  /// True iff the two patterns can be compacted into one (§3): no terminal
  /// carries conflicting values and no bus line is triggered from two
  /// different core boundaries.
  [[nodiscard]] static bool compatible(const SiPattern& a, const SiPattern& b);

  /// Merges `other` into this pattern if compatible; returns false (and
  /// leaves this pattern unchanged) otherwise.
  bool try_absorb(const SiPattern& other);

  /// Table-1-style rendering: one char per terminal in [0, total), then
  /// " | " and one char per bus line ('1' occupied / 'x' free).
  [[nodiscard]] std::string render(int total_terminals, int bus_width) const;

  friend bool operator==(const SiPattern&, const SiPattern&) = default;

 private:
  std::vector<std::pair<int, SigValue>> assignments_;  // sorted by terminal
  std::vector<BusBit> bus_bits_;                       // sorted by line
};

}  // namespace sitam
