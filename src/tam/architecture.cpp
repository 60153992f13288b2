#include "tam/architecture.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/check.h"
#include "util/rng.h"

namespace sitam {

namespace {

// Per-core commutative hash terms: two independent SplitMix64 outputs of
// the core index. Summed with u64 wraparound, so a core set's sums are
// order-independent and support O(1) add/remove/merge. The salts keep the
// two halves independent (a collision must hit both).
inline std::uint64_t core_term0(int core) {
  std::uint64_t s = 0x5ca1ab1eULL + static_cast<std::uint64_t>(core);
  return split_mix64(s);
}

inline std::uint64_t core_term1(int core) {
  std::uint64_t s = (0x5ca1ab1eULL ^ 0x94d049bb133111ebULL) +
                    static_cast<std::uint64_t>(core);
  return split_mix64(s);
}

// Finalizer: mixes (width, core count, sum) into one 64-bit hash. The
// count is mixed in so that sum collisions between sets of different sizes
// (e.g. the empty set and any zero-sum set) cannot alias.
inline std::uint64_t finalize_rail_hash(std::uint64_t salt, int width,
                                        std::size_t count,
                                        std::uint64_t sum) {
  std::uint64_t s = salt ^ sum;
  std::uint64_t h = split_mix64(s);
  s = h ^ (static_cast<std::uint64_t>(width) * 0x9e3779b97f4a7c15ULL);
  h = split_mix64(s);
  s = h ^ static_cast<std::uint64_t>(count);
  return split_mix64(s);
}

inline RailHash finalize_rail_hash_pair(const TestRail& rail,
                                        std::uint64_t sum0,
                                        std::uint64_t sum1) {
  return RailHash{
      finalize_rail_hash(0x5ca1ab1eULL, rail.width, rail.cores.size(), sum0),
      finalize_rail_hash(0x5ca1ab1eULL ^ 0x94d049bb133111ebULL, rail.width,
                         rail.cores.size(), sum1)};
}

}  // namespace

void TestRail::insert_core(int core) {
  const auto it = std::lower_bound(cores.begin(), cores.end(), core);
  SITAM_DCHECK_MSG(it == cores.end() || *it != core,
                   "insert_core: core " << core << " already on this rail");
  cores.insert(it, core);
  if (hash_valid_) {
    hash_sum0_ += core_term0(core);
    hash_sum1_ += core_term1(core);
  }
}

void TestRail::erase_core(int core) {
  const auto it = std::lower_bound(cores.begin(), cores.end(), core);
  SITAM_DCHECK_MSG(it != cores.end() && *it == core,
                   "erase_core: core " << core << " not on this rail");
  cores.erase(it);
  if (hash_valid_) {
    hash_sum0_ -= core_term0(core);
    hash_sum1_ -= core_term1(core);
  }
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
  if (hash_valid_ && other.hash_valid_) {
    hash_sum0_ += other.hash_sum0_;
    hash_sum1_ += other.hash_sum1_;
  } else {
    hash_valid_ = false;
  }
}

void TestRail::rehash_cores() const {
  hash_sum0_ = 0;
  hash_sum1_ = 0;
  for (const int core : cores) {
    hash_sum0_ += core_term0(core);
    hash_sum1_ += core_term1(core);
  }
  hash_valid_ = true;
}

void TestRail::check_hash_cache() const {
  // A warm cache must agree with the from-scratch recomputation — this
  // catches any mutation site that bypassed the helpers without calling
  // invalidate_hash().
  const RailHash reference = rail_content_hash_reference(*this);
  const RailHash cached =
      finalize_rail_hash_pair(*this, hash_sum0_, hash_sum1_);
  SITAM_DCHECK_MSG(cached == reference,
                   "stale rail hash cache: cores were mutated without "
                   "invalidate_hash()");
}

RailHash TestRail::content_hash() const {
  const auto [sum0, sum1] = hash_sums();
  return finalize_rail_hash_pair(*this, sum0, sum1);
}

RailHash rail_content_hash_reference(const TestRail& rail) {
  std::uint64_t sum0 = 0;
  std::uint64_t sum1 = 0;
  for (const int core : rail.cores) {
    sum0 += core_term0(core);
    sum1 += core_term1(core);
  }
  return finalize_rail_hash_pair(rail, sum0, sum1);
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
