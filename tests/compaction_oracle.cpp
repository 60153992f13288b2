#include "compaction_oracle.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.h"
#include "util/stopwatch.h"

namespace sitam::testing {

namespace {

/// Dense, epoch-stamped view of one growing compacted pattern. Checking a
/// sparse candidate against it is O(candidate care bits).
class SparseAccumulator {
 public:
  SparseAccumulator(int total_terminals, int bus_width)
      : values_(static_cast<std::size_t>(total_terminals)),
        value_epoch_(static_cast<std::size_t>(total_terminals), 0),
        bus_driver_(static_cast<std::size_t>(bus_width)),
        bus_epoch_(static_cast<std::size_t>(bus_width), 0) {}

  /// Starts a fresh compacted pattern (O(1) via epoch bump).
  void reset() {
    ++epoch_;
    touched_terminals_.clear();
    touched_bus_.clear();
  }

  [[nodiscard]] bool fits(const SiPattern& p) const {
    for (const auto& [terminal, value] : p.assignments()) {
      check_terminal(terminal);
      const auto t = static_cast<std::size_t>(terminal);
      if (value_epoch_[t] == epoch_ && values_[t] != value) return false;
    }
    for (const BusBit& bit : p.bus_bits()) {
      check_bus(bit.line);
      const auto l = static_cast<std::size_t>(bit.line);
      if (bus_epoch_[l] == epoch_ && bus_driver_[l] != bit.driver_core) {
        return false;
      }
    }
    return true;
  }

  /// Precondition: fits(p).
  void absorb(const SiPattern& p) {
    for (const auto& [terminal, value] : p.assignments()) {
      const auto t = static_cast<std::size_t>(terminal);
      if (value_epoch_[t] != epoch_) {
        value_epoch_[t] = epoch_;
        values_[t] = value;
        touched_terminals_.push_back(terminal);
      }
    }
    for (const BusBit& bit : p.bus_bits()) {
      const auto l = static_cast<std::size_t>(bit.line);
      if (bus_epoch_[l] != epoch_) {
        bus_epoch_[l] = epoch_;
        bus_driver_[l] = bit.driver_core;
        touched_bus_.push_back(bit.line);
      }
    }
  }

  [[nodiscard]] SiPattern to_pattern() {
    SiPattern p;
    std::sort(touched_terminals_.begin(), touched_terminals_.end());
    for (const int terminal : touched_terminals_) {
      p.set(terminal, values_[static_cast<std::size_t>(terminal)]);
    }
    std::sort(touched_bus_.begin(), touched_bus_.end());
    for (const int line : touched_bus_) {
      p.set_bus(line, bus_driver_[static_cast<std::size_t>(line)]);
    }
    return p;
  }

 private:
  void check_terminal(int terminal) const {
    if (terminal < 0 || terminal >= static_cast<int>(values_.size())) {
      throw std::out_of_range("compaction: terminal id " +
                              std::to_string(terminal) +
                              " outside declared terminal space");
    }
  }
  void check_bus(int line) const {
    if (line < 0 || line >= static_cast<int>(bus_driver_.size())) {
      throw std::out_of_range("compaction: bus line " + std::to_string(line) +
                              " outside declared bus width");
    }
  }

  std::uint32_t epoch_ = 0;
  std::vector<SigValue> values_;
  std::vector<std::uint32_t> value_epoch_;
  std::vector<int> bus_driver_;
  std::vector<std::uint32_t> bus_epoch_;
  std::vector<int> touched_terminals_;
  std::vector<int> touched_bus_;
};

}  // namespace

CompactionResult compact_greedy_reference(std::span<const SiPattern> patterns,
                                          int total_terminals,
                                          int bus_width) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_greedy: negative dimensions");
  }
  Stopwatch watch;
  CompactionResult result;
  result.stats.original_count = patterns.size();

  SparseAccumulator acc(total_terminals, bus_width);
  std::vector<bool> used(patterns.size(), false);
  std::size_t next_seed = 0;
  // Each cycle seeds a new compacted pattern with the first uncompacted one
  // and sweeps all following patterns, merging every compatible one.
  while (true) {
    while (next_seed < patterns.size() && used[next_seed]) ++next_seed;
    if (next_seed == patterns.size()) break;
    acc.reset();
    // fits() on an empty accumulator cannot conflict, but it validates the
    // seed's terminal/bus ranges.
    SITAM_CHECK(acc.fits(patterns[next_seed]));
    acc.absorb(patterns[next_seed]);
    used[next_seed] = true;
    for (std::size_t j = next_seed + 1; j < patterns.size(); ++j) {
      if (used[j]) continue;
      if (acc.fits(patterns[j])) {
        acc.absorb(patterns[j]);
        used[j] = true;
      }
    }
    result.patterns.push_back(acc.to_pattern());
  }

  result.stats.compacted_count = result.patterns.size();
  result.stats.seconds = watch.seconds();
  return result;
}

}  // namespace sitam::testing
