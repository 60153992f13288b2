#include "tam/architecture.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/check.h"

namespace sitam {

void TestRail::insert_core(int core) {
  const auto it = std::lower_bound(cores.begin(), cores.end(), core);
  SITAM_DCHECK_MSG(it == cores.end() || *it != core,
                   "insert_core: core " << core << " already on this rail");
  cores.insert(it, core);
}

void TestRail::erase_core(int core) {
  const auto it = std::lower_bound(cores.begin(), cores.end(), core);
  SITAM_DCHECK_MSG(it != cores.end() && *it == core,
                   "erase_core: core " << core << " not on this rail");
  cores.erase(it);
}

void TestRail::merge_cores_from(const TestRail& other) {
  SITAM_DCHECK_MSG(this != &other,
                   "merge_cores_from: rail merged with itself");
  // Backward merge in place: grow once, then fill from the back, taking the
  // larger tail element each step. No temporary buffer, and a reused rail
  // (the optimizer's candidate scratch) allocates nothing once warm.
  std::size_t mine = cores.size();
  std::size_t theirs = other.cores.size();
  cores.resize(mine + theirs);
  for (std::size_t out = cores.size(); theirs > 0;) {
    cores[--out] = mine > 0 && cores[mine - 1] > other.cores[theirs - 1]
                       ? cores[--mine]
                       : other.cores[--theirs];
  }
}

int TamArchitecture::total_width() const {
  int width = 0;
  for (const TestRail& r : rails) width += r.width;
  return width;
}

int TamArchitecture::core_count() const {
  int count = 0;
  for (const TestRail& r : rails) count += static_cast<int>(r.cores.size());
  return count;
}

std::vector<int> TamArchitecture::rail_of_core(int num_cores) const {
  std::vector<int> map(static_cast<std::size_t>(num_cores), -1);
  for (std::size_t r = 0; r < rails.size(); ++r) {
    for (const int core : rails[r].cores) {
      if (core >= 0 && core < num_cores) {
        map[static_cast<std::size_t>(core)] = static_cast<int>(r);
      }
    }
  }
  return map;
}

void TamArchitecture::validate(int num_cores) const {
  std::vector<bool> seen(static_cast<std::size_t>(num_cores), false);
  for (const TestRail& rail : rails) {
    if (rail.width < 1) {
      throw std::invalid_argument("TAM rail has width < 1");
    }
    if (rail.cores.empty()) {
      throw std::invalid_argument("TAM rail has no cores");
    }
    if (!std::is_sorted(rail.cores.begin(), rail.cores.end())) {
      throw std::invalid_argument("TAM rail cores not sorted");
    }
    for (const int core : rail.cores) {
      if (core < 0 || core >= num_cores) {
        throw std::invalid_argument("TAM rail core index out of range");
      }
      if (seen[static_cast<std::size_t>(core)]) {
        throw std::invalid_argument("core assigned to multiple TAM rails");
      }
      seen[static_cast<std::size_t>(core)] = true;
    }
  }
  for (int c = 0; c < num_cores; ++c) {
    if (!seen[static_cast<std::size_t>(c)]) {
      throw std::invalid_argument("core " + std::to_string(c) +
                                  " assigned to no TAM rail");
    }
  }
}

std::string TamArchitecture::describe() const {
  std::ostringstream os;
  for (std::size_t r = 0; r < rails.size(); ++r) {
    if (r != 0) os << ' ';
    os << '{';
    for (std::size_t c = 0; c < rails[r].cores.size(); ++c) {
      if (c != 0) os << ',';
      os << rails[r].cores[c];
    }
    os << "|w=" << rails[r].width << '}';
  }
  return os.str();
}

}  // namespace sitam
