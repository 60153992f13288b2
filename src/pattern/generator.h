// SI test pattern generators.
//
// Three generators are provided:
//
//  * draw_random_patterns — the workload of the paper's §5 experiments:
//    one victim, Na ∈ [2,6] random aggressors with at most two outside the
//    victim core boundary, and a 32-bit shared bus occupied with
//    probability 50% (1..Na postfix bits). It writes a RawPatternStore;
//    generate_random_patterns is the same draw as sorted SiPatterns.
//
//  * generate_ma_patterns — the maximal-aggressor fault model [Cuviello et
//    al., ICCAD'99]: 6 vector pairs per victim net (positive/negative
//    glitch, rising/falling delay, rising/falling speedup), all aggressors
//    transitioning in the same direction.
//
//  * generate_mt_patterns — the *reduced* multiple-transition fault model
//    [Tehranipour et al., TCAD'04]: all 4 victim behaviours times all
//    2^(2k) transition combinations on the 2k neighbors within locality
//    factor k, i.e. ~2^(2k+2) vector pairs per victim.
#pragma once

#include <cstdint>
#include <vector>

#include "interconnect/terminal_space.h"
#include "interconnect/topology.h"
#include "pattern/pattern.h"
#include "pattern/raw_store.h"
#include "util/rng.h"

namespace sitam {

struct RandomPatternConfig {
  int min_aggressors = 2;
  int max_aggressors = 6;
  /// "at most two aggressors are outside of the victim core boundary".
  /// The actual count is uniform in [min_external, min(max_external, Na)];
  /// inter-core routing makes at least one external aggressor typical.
  int min_external_aggressors = 1;
  int max_external_aggressors = 2;
  /// External aggressors come from cores within ±ring of the victim core
  /// in the module order (a 1-D floorplan proxy: only physically adjacent
  /// cores share routing regions, so only they couple). 0 = any core (the
  /// default — clustering externals makes patterns inside a group conflict
  /// more, which costs vertical compaction more than the shorter lengths
  /// gain; see the workload_models bench to experiment).
  int external_core_ring = 0;
  /// Aggressors inside the victim core are drawn from the +-window bit
  /// neighborhood of the victim terminal ("a victim interconnect is mainly
  /// affected by its neighboring aggressors", §3). 0 = unrestricted.
  int locality_window = 16;
  /// Hold the non-aggressor neighbors inside the locality window quiescent
  /// (stable 0). A deterministic noise measurement requires controlling the
  /// whole coupling neighborhood — an unspecified neighbor could mask or
  /// inflate the glitch/delay. Densifies patterns and hence bounds how far
  /// the vertical compaction can go, exactly as in the MA/MT models where
  /// every line of the neighborhood carries a specified value.
  bool quiet_neighbors = true;
  int bus_width = 32;
  double bus_use_probability = 0.5;
};

/// Draws `count` random SI vector pairs per §5 of the paper into `out`
/// (cares in draw order), continuing `rng`'s stream: two calls of n and m
/// patterns draw exactly what one call of n + m does. `out` is not closed.
/// Throws std::invalid_argument on a degenerate configuration (fewer than
/// two cores, negative counts, bad probability...).
void draw_random_patterns(const TerminalSpace& terminals, std::int64_t count,
                          const RandomPatternConfig& config, Rng& rng,
                          RawPatternStore& out);

/// draw_random_patterns as SiPatterns: each pattern's cares sorted by
/// terminal. Same checks.
[[nodiscard]] std::vector<SiPattern> generate_random_patterns(
    const TerminalSpace& terminals, std::int64_t count,
    const RandomPatternConfig& config, Rng& rng);

struct TopologyPatternConfig {
  /// Routing-slot window around the victim net; all nets inside get values.
  int window = 3;
  /// Probability that a specified neighbor transitions (vs idling quiet).
  double aggressor_probability = 0.6;
  double bus_use_probability = 0.5;
  int max_bus_bits = 6;
};

/// Random SI vector pairs derived from an explicit interconnect topology
/// (the physically-grounded variant of generate_random_patterns): the
/// victim is a random net, every net within the routing window gets a
/// value — a transition with aggressor_probability, else the quiet idle
/// level — and aggressors naturally cross core boundaries wherever the
/// routing interleaves different cores' nets (Fig. 1). Bus lines, when
/// used, are driven from the victim's core.
[[nodiscard]] std::vector<SiPattern> generate_topology_patterns(
    const Topology& topology, const TerminalSpace& terminals,
    std::int64_t count, const TopologyPatternConfig& config, Rng& rng);

/// MA-model pattern set: 6 patterns per net in `topology`, aggressors being
/// the nets within ±`aggressor_window` routing slots. Patterns whose victim
/// and aggressor nets collide on a driver terminal keep the victim value
/// (first-write-wins on aggressors).
[[nodiscard]] std::vector<SiPattern> generate_ma_patterns(
    const Topology& topology, const TerminalSpace& terminals,
    int aggressor_window);

/// Reduced-MT-model pattern set with locality factor `k` (the 2k nearest
/// nets act as aggressors). Throws std::invalid_argument if k < 0 or
/// k > 12 (pattern count would overflow any practical budget).
[[nodiscard]] std::vector<SiPattern> generate_mt_patterns(
    const Topology& topology, const TerminalSpace& terminals, int k);

/// Closed-form pattern-pair counts used by the §2 motivation discussion.
[[nodiscard]] constexpr std::int64_t ma_pattern_count(
    std::int64_t victims) noexcept {
  return 6 * victims;
}
[[nodiscard]] constexpr std::int64_t mt_pattern_count(std::int64_t victims,
                                                      int k) noexcept {
  return victims * (std::int64_t{1} << (2 * k + 2));
}

}  // namespace sitam
