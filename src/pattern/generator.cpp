#include "pattern/generator.h"

#include <algorithm>
#include <stdexcept>

namespace sitam {

namespace {

SigValue random_victim_value(Rng& rng) {
  switch (rng.below(4)) {
    case 0:
      return SigValue::kStable0;
    case 1:
      return SigValue::kStable1;
    case 2:
      return SigValue::kRise;
    default:
      return SigValue::kFall;
  }
}

SigValue random_transition(Rng& rng) {
  return rng.chance(0.5) ? SigValue::kRise : SigValue::kFall;
}

void check_random_config(const TerminalSpace& terminals, std::int64_t count,
                         const RandomPatternConfig& config) {
  if (terminals.core_count() < 2) {
    throw std::invalid_argument("random SI patterns: need at least 2 cores");
  }
  if (count < 0) {
    throw std::invalid_argument("random SI patterns: negative count");
  }
  if (config.min_aggressors < 1 ||
      config.max_aggressors < config.min_aggressors) {
    throw std::invalid_argument("random SI patterns: bad aggressor range");
  }
  if (config.bus_use_probability < 0.0 || config.bus_use_probability > 1.0) {
    throw std::invalid_argument(
        "random SI patterns: bus probability outside [0,1]");
  }
  if (config.bus_width < 0 || config.max_external_aggressors < 0 ||
      config.min_external_aggressors < 0 || config.locality_window < 0 ||
      config.external_core_ring < 0) {
    throw std::invalid_argument("random SI patterns: negative config");
  }
}

}  // namespace

void draw_random_patterns(const TerminalSpace& terminals, std::int64_t count,
                          const RandomPatternConfig& config, Rng& rng,
                          RawPatternStore& out) {
  check_random_config(terminals, count, config);
  const int cores = terminals.core_count();

  // Per-call scratch, so a pattern costs no allocation: stamp[t] == n + 1
  // iff pattern n has already written terminal t (the first write wins),
  // `picks` holds the sampled indices. Cares go to the store in draw
  // order.
  std::vector<std::int64_t> stamp(static_cast<std::size_t>(terminals.total()),
                                  0);
  std::vector<std::size_t> picks;

  for (std::int64_t n = 0; n < count; ++n) {
    const std::int64_t mark = n + 1;
    const auto is_free = [&](int t) {
      return stamp[static_cast<std::size_t>(t)] != mark;
    };
    const auto write = [&](int t, SigValue value) {
      stamp[static_cast<std::size_t>(t)] = mark;
      out.add_care(t, value);
    };

    // Victim: a random output terminal of a random core.
    const int victim_core = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(cores)));
    const int victim_woc = terminals.woc(victim_core);
    const int victim_bit =
        static_cast<int>(rng.below(static_cast<std::uint64_t>(victim_woc)));
    write(terminals.terminal(victim_core, victim_bit),
          random_victim_value(rng));

    // Aggressors: Na in [min, max], at most max_external outside the victim
    // core boundary, the rest inside. Internal aggressors come from the
    // locality window around the victim bit (crosstalk is a neighborhood
    // effect); the window is clipped at the core boundary.
    const int lo_bit =
        config.locality_window > 0
            ? std::max(0, victim_bit - config.locality_window)
            : 0;
    const int hi_bit = config.locality_window > 0
                           ? std::min(victim_woc - 1,
                                      victim_bit + config.locality_window)
                           : victim_woc - 1;
    const int window_size = hi_bit - lo_bit;  // candidates excluding victim

    const int na = static_cast<int>(
        rng.uniform(static_cast<std::uint64_t>(config.min_aggressors),
                    static_cast<std::uint64_t>(config.max_aggressors)));
    const int ext_hi = std::min(config.max_external_aggressors, na);
    const int ext_lo = std::min(config.min_external_aggressors, ext_hi);
    int externals = static_cast<int>(
        rng.uniform(static_cast<std::uint64_t>(ext_lo),
                    static_cast<std::uint64_t>(ext_hi)));
    int internals = na - externals;
    // The window only has `window_size` candidate terminals; overflow
    // becomes external (still capped by the paper's limit of two).
    if (internals > window_size) {
      const int spill = internals - window_size;
      internals = window_size;
      externals = std::min(externals + spill, config.max_external_aggressors);
    }

    if (internals > 0) {
      // Distinct bits within the window, excluding the victim bit.
      rng.sample_indices(static_cast<std::size_t>(window_size),
                         static_cast<std::size_t>(internals), picks);
      for (const std::size_t pick : picks) {
        int bit = lo_bit + static_cast<int>(pick);
        if (bit >= victim_bit) ++bit;
        write(terminals.terminal(victim_core, bit), random_transition(rng));
      }
    }
    // The idle polarity (all-0 or all-1) of the quiescent neighborhood is a
    // per-pattern property of the bundle bias.
    const SigValue idle =
        rng.chance(0.5) ? SigValue::kStable0 : SigValue::kStable1;
    if (config.quiet_neighbors && config.locality_window > 0) {
      // Every other neighbor in the coupling window stays quiescent so the
      // injected noise is deterministic.
      for (int bit = lo_bit; bit <= hi_bit; ++bit) {
        const int t = terminals.terminal(victim_core, bit);
        if (is_free(t)) write(t, idle);
      }
    }
    for (int e = 0; e < externals; ++e) {
      // A random terminal of a random *other* core; collisions with an
      // already-assigned terminal simply keep the earlier value. The
      // external aggressor is routed through the victim's bundle, so its
      // own routing neighbors on that core must be controlled as well
      // (half-width quiet window).
      const int other = [&] {
        if (config.external_core_ring > 0) {
          // A floorplan neighbor: core index within ±ring, clipped at the
          // SOC boundary (no wrap — module order is a 1-D floorplan proxy).
          const int lo = std::max(0, victim_core - config.external_core_ring);
          const int hi = std::min(cores - 1,
                                  victim_core + config.external_core_ring);
          if (hi > lo) {
            const int pick = static_cast<int>(
                rng.uniform(static_cast<std::uint64_t>(lo),
                            static_cast<std::uint64_t>(hi - 1)));
            return pick + (pick >= victim_core ? 1 : 0);
          }
        }
        const int pick =
            static_cast<int>(rng.below(static_cast<std::uint64_t>(cores - 1)));
        return pick + (pick >= victim_core ? 1 : 0);
      }();
      const int other_woc = terminals.woc(other);
      const int bit =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(other_woc)));
      const int t = terminals.terminal(other, bit);
      if (is_free(t)) write(t, random_transition(rng));
      if (config.quiet_neighbors && config.locality_window > 0) {
        const int half = std::max(1, config.locality_window / 2);
        for (int b = std::max(0, bit - half);
             b <= std::min(other_woc - 1, bit + half); ++b) {
          const int tq = terminals.terminal(other, b);
          if (is_free(tq)) write(tq, idle);
        }
      }
    }

    // Shared bus postfix: with probability bus_use_probability the pattern
    // occupies 1..Na distinct lines, all triggered from the victim core
    // boundary.
    if (config.bus_width > 0 && rng.chance(config.bus_use_probability)) {
      const int occupied = static_cast<int>(rng.uniform(
          1, static_cast<std::uint64_t>(
                 std::min(na, config.bus_width))));
      rng.sample_indices(static_cast<std::size_t>(config.bus_width),
                         static_cast<std::size_t>(occupied), picks);
      std::sort(picks.begin(), picks.end());
      for (const std::size_t line : picks) {
        out.add_bus(BusBit{static_cast<int>(line), victim_core});
      }
    }
    out.end_pattern();
  }
}

std::vector<SiPattern> generate_random_patterns(
    const TerminalSpace& terminals, std::int64_t count,
    const RandomPatternConfig& config, Rng& rng) {
  check_random_config(terminals, count, config);
  std::vector<SiPattern> patterns;
  patterns.reserve(static_cast<std::size_t>(count));
  // The draw stream chunk by chunk (one RNG stream, so chunking changes
  // nothing), each pattern's cares sorted into a SiPattern.
  std::vector<std::pair<int, SigValue>> cares;
  for (std::int64_t done = 0; done < count;) {
    const std::int64_t n = std::min<std::int64_t>(
        count - done,
        static_cast<std::int64_t>(RawPatternStore::kChunkPatterns));
    RawPatternStore chunk(static_cast<std::size_t>(n));
    draw_random_patterns(terminals, n, config, rng, chunk);
    chunk.close();
    for (const PatternView& p : chunk.views()) {
      cares.assign(p.assignments().begin(), p.assignments().end());
      std::ranges::sort(cares, {}, &std::pair<int, SigValue>::first);
      patterns.emplace_back().assign(cares, p.bus_bits());
    }
    done += n;
  }
  return patterns;
}

std::vector<SiPattern> generate_topology_patterns(
    const Topology& topology, const TerminalSpace& terminals,
    std::int64_t count, const TopologyPatternConfig& config, Rng& rng) {
  if (count < 0) {
    throw std::invalid_argument("generate_topology_patterns: negative count");
  }
  if (topology.nets.empty()) {
    throw std::invalid_argument("generate_topology_patterns: no nets");
  }
  if (config.window < 0 || config.aggressor_probability < 0.0 ||
      config.aggressor_probability > 1.0 ||
      config.bus_use_probability < 0.0 ||
      config.bus_use_probability > 1.0 || config.max_bus_bits < 0) {
    throw std::invalid_argument("generate_topology_patterns: bad config");
  }

  std::vector<SiPattern> patterns;
  patterns.reserve(static_cast<std::size_t>(count));
  for (std::int64_t n = 0; n < count; ++n) {
    SiPattern p;
    const int victim_net = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(topology.nets.size())));
    const Net& victim =
        topology.nets[static_cast<std::size_t>(victim_net)];
    p.set(victim.driver_terminal, random_victim_value(rng));

    const SigValue idle =
        rng.chance(0.5) ? SigValue::kStable0 : SigValue::kStable1;
    for (const int neighbor : topology.neighbors(victim_net, config.window)) {
      const int t = topology.nets[static_cast<std::size_t>(neighbor)]
                        .driver_terminal;
      if (p.at(t) != SigValue::kDontCare) continue;  // shared driver
      p.set(t, rng.chance(config.aggressor_probability)
                   ? random_transition(rng)
                   : idle);
    }

    if (topology.bus && config.max_bus_bits > 0 &&
        rng.chance(config.bus_use_probability)) {
      const int victim_core = terminals.core_of(victim.driver_terminal);
      const int occupied = static_cast<int>(rng.uniform(
          1, static_cast<std::uint64_t>(
                 std::min(config.max_bus_bits, topology.bus->width))));
      for (const auto line : rng.sample_indices(
               static_cast<std::size_t>(topology.bus->width),
               static_cast<std::size_t>(occupied))) {
        p.set_bus(static_cast<int>(line), victim_core);
      }
    }
    patterns.push_back(std::move(p));
  }
  return patterns;
}

std::vector<SiPattern> generate_ma_patterns(const Topology& topology,
                                            const TerminalSpace& terminals,
                                            int aggressor_window) {
  (void)terminals;
  if (aggressor_window < 0) {
    throw std::invalid_argument("generate_ma_patterns: negative window");
  }
  // The six MA faults: (victim value, aggressor direction).
  struct MaCase {
    SigValue victim;
    SigValue aggressor;
  };
  constexpr MaCase kCases[] = {
      {SigValue::kStable0, SigValue::kRise},  // positive glitch
      {SigValue::kStable1, SigValue::kFall},  // negative glitch
      {SigValue::kRise, SigValue::kFall},     // rising delay
      {SigValue::kFall, SigValue::kRise},     // falling delay
      {SigValue::kRise, SigValue::kRise},     // rising speedup
      {SigValue::kFall, SigValue::kFall},     // falling speedup
  };

  std::vector<SiPattern> patterns;
  patterns.reserve(topology.nets.size() * 6);
  for (const Net& victim : topology.nets) {
    const auto neighbor_ids = topology.neighbors(victim.id, aggressor_window);
    for (const MaCase& ma : kCases) {
      SiPattern p;
      p.set(victim.driver_terminal, ma.victim);
      for (const int net_id : neighbor_ids) {
        const int t =
            topology.nets[static_cast<std::size_t>(net_id)].driver_terminal;
        if (p.at(t) == SigValue::kDontCare) p.set(t, ma.aggressor);
      }
      patterns.push_back(std::move(p));
    }
  }
  return patterns;
}

std::vector<SiPattern> generate_mt_patterns(const Topology& topology,
                                            const TerminalSpace& terminals,
                                            int k) {
  (void)terminals;
  if (k < 0 || k > 12) {
    throw std::invalid_argument(
        "generate_mt_patterns: locality factor must be in [0, 12]");
  }
  constexpr SigValue kVictimValues[] = {SigValue::kStable0, SigValue::kStable1,
                                        SigValue::kRise, SigValue::kFall};

  std::vector<SiPattern> patterns;
  for (const Net& victim : topology.nets) {
    const auto neighbor_ids = topology.neighbors(victim.id, k);
    const int na = static_cast<int>(neighbor_ids.size());
    const std::uint64_t combos = std::uint64_t{1} << na;
    for (const SigValue victim_value : kVictimValues) {
      for (std::uint64_t mask = 0; mask < combos; ++mask) {
        SiPattern p;
        p.set(victim.driver_terminal, victim_value);
        bool consistent = true;
        for (int a = 0; a < na; ++a) {
          const int t = topology.nets[static_cast<std::size_t>(
                                          neighbor_ids[static_cast<
                                              std::size_t>(a)])]
                            .driver_terminal;
          const SigValue want = (mask >> a) & 1 ? SigValue::kRise
                                                : SigValue::kFall;
          const SigValue have = p.at(t);
          if (have == SigValue::kDontCare) {
            p.set(t, want);
          } else if (have != want) {
            consistent = false;  // two nets share a driver terminal
            break;
          }
        }
        if (consistent) patterns.push_back(std::move(p));
      }
    }
  }
  return patterns;
}

}  // namespace sitam
