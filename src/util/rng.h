// Deterministic pseudo-random number generation for reproducible experiments.
//
// All randomness in sitam flows through Rng so that every table and figure in
// the paper reproduction is bit-for-bit repeatable from a single seed. The
// generator is xoshiro256** seeded via SplitMix64, which is far higher
// quality than std::minstd_rand and, unlike std::mt19937, has a trivially
// portable state and no implementation-defined seeding behaviour.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace sitam {

/// SplitMix64 step; used to expand a 64-bit seed into generator state.
/// Exposed because it is also handy as a cheap hash finalizer.
[[nodiscard]] constexpr std::uint64_t split_mix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Boost-style hash_combine: folds `value` into the running hash `h`.
[[nodiscard]] constexpr std::uint64_t hash_combine(std::uint64_t h,
                                                   std::uint64_t value) noexcept {
  return h ^ (value + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

/// hash_combine with a SplitMix64 finalizer: the mix step of the workload,
/// request and TAM architecture keys.
constexpr void hash_mix(std::uint64_t& h, std::uint64_t value) noexcept {
  h = hash_combine(h, value);
  h = split_mix64(h);
}

/// Derives an independent seed for stream `index` of a master `seed` via
/// SplitMix64. Parallel restarts/chains each seed an Rng from their own
/// stream so results do not depend on execution order or thread count.
[[nodiscard]] constexpr std::uint64_t split_stream(std::uint64_t seed,
                                                   std::uint64_t index) noexcept {
  std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
  return split_mix64(state);
}

/// xoshiro256** 1.0 with convenience distributions.
///
/// Satisfies UniformRandomBitGenerator, so it can also be plugged into
/// <random> distributions and std::shuffle if ever needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eedULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = split_mix64(sm);
  }

  /// Equal states draw equal streams.
  friend bool operator==(const Rng&, const Rng&) = default;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [lo, hi] inclusive. Throws std::invalid_argument if
  /// lo > hi. Uses Lemire-style rejection to avoid modulo bias.
  [[nodiscard]] std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
    const std::uint64_t range = hi - lo;
    if (range == max()) return (*this)();
    return lo + bounded(range + 1);
  }

  /// Uniform integer in [0, n). Throws std::invalid_argument if n == 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) {
    if (n == 0) throw std::invalid_argument("Rng::below: n == 0");
    return bounded(n);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double unit() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool chance(double p) noexcept { return unit() < p; }

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& items) {
    shuffle(std::span<T>(items));
  }

  /// k distinct indices drawn uniformly from [0, n), in random order.
  /// Throws std::invalid_argument if k > n.
  [[nodiscard]] std::vector<std::size_t> sample_indices(std::size_t n,
                                                        std::size_t k);

  /// The same draws into `out` (its contents replaced, its capacity
  /// reused), so a caller sampling in a loop allocates once.
  void sample_indices(std::size_t n, std::size_t k,
                      std::vector<std::size_t>& out);

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  // Unbiased bounded draw (n >= 1).
  [[nodiscard]] std::uint64_t bounded(std::uint64_t n) noexcept {
    // Rejection sampling on the top of the range.
    const std::uint64_t threshold = (0 - n) % n;
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  std::uint64_t state_[4]{};
};

}  // namespace sitam
