#include "soc/soc.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "util/rng.h"

namespace sitam {

std::int64_t Module::scan_flops() const {
  return std::accumulate(scan_chains.begin(), scan_chains.end(),
                         std::int64_t{0});
}

int Module::max_scan_chain() const {
  if (scan_chains.empty()) return 0;
  return *std::max_element(scan_chains.begin(), scan_chains.end());
}

const Module& Soc::module_by_id(int id) const {
  for (const Module& m : modules) {
    if (m.id == id) return m;
  }
  throw std::out_of_range("Soc '" + name + "' has no module with id " +
                          std::to_string(id));
}

std::int64_t Soc::total_woc() const {
  std::int64_t sum = 0;
  for (const Module& m : modules) sum += m.woc();
  return sum;
}

std::int64_t Soc::total_wic() const {
  std::int64_t sum = 0;
  for (const Module& m : modules) sum += m.wic();
  return sum;
}

std::int64_t Soc::total_test_data_volume() const {
  std::int64_t sum = 0;
  for (const Module& m : modules) sum += m.test_data_volume();
  return sum;
}

std::uint64_t soc_structure_hash(const Soc& soc) {
  std::uint64_t h = 0x5174616d'50c0de01ULL;  // arbitrary nonzero basis
  const auto mix = [&h](std::uint64_t value) { h = hash_combine(h, value); };
  const auto mix_string = [&](const std::string& s) {
    mix(s.size());
    for (const char c : s) mix(static_cast<unsigned char>(c));
  };
  mix_string(soc.name);
  mix(soc.modules.size());
  for (const Module& m : soc.modules) {
    mix(static_cast<std::uint64_t>(m.id));
    mix_string(m.name);
    mix(static_cast<std::uint64_t>(m.inputs));
    mix(static_cast<std::uint64_t>(m.outputs));
    mix(static_cast<std::uint64_t>(m.bidirs));
    mix(m.scan_chains.size());
    for (const int len : m.scan_chains) mix(static_cast<std::uint64_t>(len));
    mix(static_cast<std::uint64_t>(m.patterns));
    mix(static_cast<std::uint64_t>(m.bist_patterns));
  }
  return h;
}

void validate(const Soc& soc) {
  if (soc.name.empty()) {
    throw std::invalid_argument("SOC name must not be empty");
  }
  if (soc.modules.empty()) {
    throw std::invalid_argument("SOC '" + soc.name + "' has no modules");
  }
  std::unordered_set<int> ids;
  for (const Module& m : soc.modules) {
    const std::string where =
        "module " + std::to_string(m.id) + " ('" + m.name + "')";
    if (m.id <= 0) {
      throw std::invalid_argument(where + ": id must be positive");
    }
    if (!ids.insert(m.id).second) {
      throw std::invalid_argument(where + ": duplicate id");
    }
    if (m.name.empty()) {
      throw std::invalid_argument(where + ": name must not be empty");
    }
    if (m.inputs < 0 || m.outputs < 0 || m.bidirs < 0) {
      throw std::invalid_argument(where + ": negative terminal count");
    }
    if (m.boundary_cells() == 0) {
      throw std::invalid_argument(where + ": module has no terminals");
    }
    if (m.patterns < 0 || m.bist_patterns < 0) {
      throw std::invalid_argument(where + ": negative pattern count");
    }
    for (const int len : m.scan_chains) {
      if (len <= 0) {
        throw std::invalid_argument(where + ": scan chain length " +
                                    std::to_string(len) +
                                    " must be positive");
      }
    }
  }
}

}  // namespace sitam
