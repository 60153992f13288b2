#include "util/rng.h"

#include <numeric>
#include <unordered_set>

namespace sitam {

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  std::vector<std::size_t> out;
  sample_indices(n, k, out);
  return out;
}

void Rng::sample_indices(std::size_t n, std::size_t k,
                         std::vector<std::size_t>& out) {
  if (k > n) throw std::invalid_argument("Rng::sample_indices: k > n");
  out.clear();
  if (k == 0) return;
  // For dense draws a partial Fisher-Yates is cheaper; for sparse draws
  // rejection avoids materializing [0, n).
  if (k * 3 >= n) {
    out.resize(n);
    std::iota(out.begin(), out.end(), std::size_t{0});
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t j = i + static_cast<std::size_t>(below(n - i));
      std::swap(out[i], out[j]);
    }
    out.resize(k);
    return;
  }
  out.reserve(k);
  if (n <= 64) {
    // The same draws as the set below, with a bit mask for the seen set.
    std::uint64_t seen = 0;
    while (out.size() < k) {
      const auto v = static_cast<std::size_t>(below(n));
      const std::uint64_t bit = std::uint64_t{1} << v;
      if ((seen & bit) == 0) {
        seen |= bit;
        out.push_back(v);
      }
    }
    return;
  }
  std::unordered_set<std::size_t> seen;
  seen.reserve(k * 2);
  while (out.size() < k) {
    const auto v = static_cast<std::size_t>(below(n));
    if (seen.insert(v).second) out.push_back(v);
  }
}

}  // namespace sitam
