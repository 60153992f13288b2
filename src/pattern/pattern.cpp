#include "pattern/pattern.h"

#include <algorithm>
#include <stdexcept>

namespace sitam {

void SiPattern::set(int terminal, SigValue value) {
  if (terminal < 0) {
    throw std::invalid_argument("SiPattern::set: negative terminal id");
  }
  if (assignments_.empty() || assignments_.back().first < terminal) {
    // Ascending builds (the compaction kernel) append without a search.
    if (value != SigValue::kDontCare) assignments_.emplace_back(terminal, value);
    return;
  }
  const auto it = std::lower_bound(
      assignments_.begin(), assignments_.end(), terminal,
      [](const auto& entry, int t) { return entry.first < t; });
  const bool present = it != assignments_.end() && it->first == terminal;
  if (value == SigValue::kDontCare) {
    if (present) assignments_.erase(it);
    return;
  }
  if (present) {
    it->second = value;
  } else {
    assignments_.insert(it, {terminal, value});
  }
}

SigValue SiPattern::at(int terminal) const {
  const auto it = std::lower_bound(
      assignments_.begin(), assignments_.end(), terminal,
      [](const auto& entry, int t) { return entry.first < t; });
  if (it != assignments_.end() && it->first == terminal) return it->second;
  return SigValue::kDontCare;
}

void SiPattern::set_bus(int line, int driver_core) {
  if (line < 0) {
    throw std::invalid_argument("SiPattern::set_bus: negative line");
  }
  if (bus_bits_.empty() || bus_bits_.back().line < line) {
    bus_bits_.push_back(BusBit{line, driver_core});
    return;
  }
  const auto it = std::lower_bound(
      bus_bits_.begin(), bus_bits_.end(), line,
      [](const BusBit& bit, int l) { return bit.line < l; });
  if (it != bus_bits_.end() && it->line == line) {
    if (it->driver_core != driver_core) {
      throw std::logic_error(
          "SiPattern::set_bus: line already occupied by another core");
    }
    return;
  }
  bus_bits_.insert(it, BusBit{line, driver_core});
}

void SiPattern::assign(std::span<const std::pair<int, SigValue>> assignments,
                       std::span<const BusBit> bus_bits) {
  int last = -1;
  for (const auto& [terminal, value] : assignments) {
    if (terminal <= last || value == SigValue::kDontCare) {
      throw std::invalid_argument(
          "SiPattern::assign: terminals must ascend strictly with care "
          "values");
    }
    last = terminal;
  }
  last = -1;
  for (const BusBit& bit : bus_bits) {
    if (bit.line <= last) {
      throw std::invalid_argument(
          "SiPattern::assign: bus lines must ascend strictly");
    }
    last = bit.line;
  }
  assignments_.assign(assignments.begin(), assignments.end());
  bus_bits_.assign(bus_bits.begin(), bus_bits.end());
}

std::vector<int> SiPattern::care_cores(const TerminalSpace& terminals) const {
  std::vector<int> cores;
  for (const auto& [terminal, value] : assignments_) {
    (void)value;
    cores.push_back(terminals.core_of(terminal));
  }
  for (const BusBit& bit : bus_bits_) cores.push_back(bit.driver_core);
  std::sort(cores.begin(), cores.end());
  cores.erase(std::unique(cores.begin(), cores.end()), cores.end());
  return cores;
}

namespace {

/// Two-pointer conflict scan over two sorted assignment lists.
bool signals_compatible(
    std::span<const std::pair<int, SigValue>> a,
    std::span<const std::pair<int, SigValue>> b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].first < b[j].first) {
      ++i;
    } else if (a[i].first > b[j].first) {
      ++j;
    } else {
      if (a[i].second != b[j].second) return false;
      ++i;
      ++j;
    }
  }
  return true;
}

/// Binary-search variant: probe the (few) entries of `small` in `large`.
/// Asymptotically better when |large| >> |small|.
bool signals_compatible_probe(
    std::span<const std::pair<int, SigValue>> large,
    std::span<const std::pair<int, SigValue>> small) {
  for (const auto& [terminal, value] : small) {
    const auto it = std::lower_bound(
        large.begin(), large.end(), terminal,
        [](const auto& entry, int t) { return entry.first < t; });
    if (it != large.end() && it->first == terminal && it->second != value) {
      return false;
    }
  }
  return true;
}

bool bus_compatible(std::span<const BusBit> a, std::span<const BusBit> b) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].line < b[j].line) {
      ++i;
    } else if (a[i].line > b[j].line) {
      ++j;
    } else {
      if (a[i].driver_core != b[j].driver_core) return false;
      ++i;
      ++j;
    }
  }
  return true;
}

}  // namespace

bool SiPattern::compatible(const SiPattern& a, const SiPattern& b) {
  const auto& sa = a.assignments_;
  const auto& sb = b.assignments_;
  bool signals_ok;
  // Pick the cheaper scan: linear merge for similar sizes, probing when one
  // side is much larger (the accumulating pattern during compaction).
  if (sa.size() > 8 * sb.size() + 16) {
    signals_ok = signals_compatible_probe(sa, sb);
  } else if (sb.size() > 8 * sa.size() + 16) {
    signals_ok = signals_compatible_probe(sb, sa);
  } else {
    signals_ok = signals_compatible(sa, sb);
  }
  return signals_ok && bus_compatible(a.bus_bits_, b.bus_bits_);
}

bool SiPattern::try_absorb(const SiPattern& other) {
  if (!compatible(*this, other)) return false;
  // Merge sorted assignment lists.
  std::vector<std::pair<int, SigValue>> merged;
  merged.reserve(assignments_.size() + other.assignments_.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < assignments_.size() || j < other.assignments_.size()) {
    if (j >= other.assignments_.size() ||
        (i < assignments_.size() &&
         assignments_[i].first <= other.assignments_[j].first)) {
      if (j < other.assignments_.size() &&
          assignments_[i].first == other.assignments_[j].first) {
        ++j;  // identical value (checked by compatible)
      }
      merged.push_back(assignments_[i++]);
    } else {
      merged.push_back(other.assignments_[j++]);
    }
  }
  assignments_ = std::move(merged);

  std::vector<BusBit> merged_bus;
  merged_bus.reserve(bus_bits_.size() + other.bus_bits_.size());
  i = 0;
  j = 0;
  while (i < bus_bits_.size() || j < other.bus_bits_.size()) {
    if (j >= other.bus_bits_.size() ||
        (i < bus_bits_.size() &&
         bus_bits_[i].line <= other.bus_bits_[j].line)) {
      if (j < other.bus_bits_.size() &&
          bus_bits_[i].line == other.bus_bits_[j].line) {
        ++j;
      }
      merged_bus.push_back(bus_bits_[i++]);
    } else {
      merged_bus.push_back(other.bus_bits_[j++]);
    }
  }
  bus_bits_ = std::move(merged_bus);
  return true;
}

std::string SiPattern::render(int total_terminals, int bus_width) const {
  std::string out(static_cast<std::size_t>(total_terminals), 'x');
  for (const auto& [terminal, value] : assignments_) {
    if (terminal < total_terminals) {
      out[static_cast<std::size_t>(terminal)] = to_char(value);
    }
  }
  out += " | ";
  std::string bus(static_cast<std::size_t>(bus_width), 'x');
  for (const BusBit& bit : bus_bits_) {
    if (bit.line < bus_width) bus[static_cast<std::size_t>(bit.line)] = '1';
  }
  out += bus;
  return out;
}

}  // namespace sitam
