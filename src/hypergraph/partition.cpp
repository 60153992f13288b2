#include "hypergraph/partition.h"

#include <algorithm>
#include <array>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>
#include <unordered_map>

#include "util/check.h"

namespace sitam {

namespace {

/// Incidence structure: edge list per vertex.
std::vector<std::vector<int>> build_incidence(const Hypergraph& hg) {
  std::vector<std::vector<int>> inc(
      static_cast<std::size_t>(hg.vertex_count()));
  for (std::size_t e = 0; e < hg.edges.size(); ++e) {
    for (const int v : hg.edges[e].pins) {
      inc[static_cast<std::size_t>(v)].push_back(static_cast<int>(e));
    }
  }
  return inc;
}

// ---------------------------------------------------------------------------
// Bisection working state
// ---------------------------------------------------------------------------

struct BisectionState {
  const Hypergraph* hg = nullptr;
  const std::vector<std::vector<int>>* incidence = nullptr;
  std::vector<std::uint8_t> side;          // 0 or 1 per vertex
  std::vector<std::array<int, 2>> pins_on;  // per edge: pins on each side
  std::int64_t side_weight[2] = {0, 0};
  std::int64_t limit[2] = {0, 0};
  std::int64_t cut = 0;

  void init(const Hypergraph& graph,
            const std::vector<std::vector<int>>& inc,
            std::vector<std::uint8_t> sides, std::int64_t limit0,
            std::int64_t limit1) {
    hg = &graph;
    incidence = &inc;
    side = std::move(sides);
    limit[0] = limit0;
    limit[1] = limit1;
    side_weight[0] = side_weight[1] = 0;
    for (std::size_t v = 0; v < side.size(); ++v) {
      side_weight[side[v]] += graph.vertex_weights[v];
    }
    pins_on.assign(graph.edges.size(), {0, 0});
    cut = 0;
    for (std::size_t e = 0; e < graph.edges.size(); ++e) {
      for (const int v : graph.edges[e].pins) {
        ++pins_on[e][side[static_cast<std::size_t>(v)]];
      }
      if (pins_on[e][0] > 0 && pins_on[e][1] > 0) cut += graph.edges[e].weight;
    }
  }

  /// What an edge of weight `w` with `counts` pins per side adds to the
  /// gain of a pin on side `s`: +w if the pin is its last on `s` (the edge
  /// becomes uncut), -w if the other side has none (it becomes cut).
  [[nodiscard]] static std::int64_t edge_gain(const std::array<int, 2>& counts,
                                              int s, std::int64_t w) {
    return (counts[s] == 1 ? w : 0) - (counts[1 - s] == 0 ? w : 0);
  }

  /// FM gain of moving `v` to the other side: positive = cut decreases.
  [[nodiscard]] std::int64_t gain(int v) const {
    std::int64_t g = 0;
    const int from = side[static_cast<std::size_t>(v)];
    for (const int e : (*incidence)[static_cast<std::size_t>(v)]) {
      g += edge_gain(pins_on[static_cast<std::size_t>(e)], from,
                     hg->edges[static_cast<std::size_t>(e)].weight);
    }
    return g;
  }

  [[nodiscard]] std::int64_t excess() const {
    return std::max<std::int64_t>(0, side_weight[0] - limit[0]) +
           std::max<std::int64_t>(0, side_weight[1] - limit[1]);
  }

  /// True iff moving `v` keeps (or repairs) balance.
  [[nodiscard]] bool feasible(int v) const {
    const int from = side[static_cast<std::size_t>(v)];
    const int to = 1 - from;
    const std::int64_t w = hg->vertex_weights[static_cast<std::size_t>(v)];
    const std::int64_t new_to = side_weight[to] + w;
    const std::int64_t new_from = side_weight[from] - w;
    const std::int64_t new_excess =
        std::max<std::int64_t>(0, new_to - limit[to]) +
        std::max<std::int64_t>(0, new_from - limit[from]);
    const std::int64_t old_excess = excess();
    if (old_excess > 0) return new_excess < old_excess;
    return new_to <= limit[to];
  }

  /// Moves `v` to the other side. With `gains` (one per vertex), also
  /// updates the gain of every other pin of `v`'s edges from each edge's
  /// pin counts before and after; `v`'s own entry goes stale.
  void move(int v, std::span<std::int64_t> gains = {}) {
    const int from = side[static_cast<std::size_t>(v)];
    const int to = 1 - from;
    const std::int64_t w = hg->vertex_weights[static_cast<std::size_t>(v)];
    for (const int e : (*incidence)[static_cast<std::size_t>(v)]) {
      auto& counts = pins_on[static_cast<std::size_t>(e)];
      const Hyperedge& edge = hg->edges[static_cast<std::size_t>(e)];
      const std::array<int, 2> before = counts;
      --counts[from];
      ++counts[to];
      const bool was_cut = before[0] > 0 && before[1] > 0;
      const bool now_cut = counts[0] > 0 && counts[1] > 0;
      if (was_cut && !now_cut) cut -= edge.weight;
      if (!was_cut && now_cut) cut += edge.weight;
      if (gains.empty()) continue;
      const std::int64_t delta[2] = {
          edge_gain(counts, 0, edge.weight) -
              edge_gain(before, 0, edge.weight),
          edge_gain(counts, 1, edge.weight) -
              edge_gain(before, 1, edge.weight)};
      if (delta[0] == 0 && delta[1] == 0) continue;
      for (const int u : edge.pins) {
        if (u != v) {
          gains[static_cast<std::size_t>(u)] +=
              delta[side[static_cast<std::size_t>(u)]];
        }
      }
    }
    side_weight[from] -= w;
    side_weight[to] += w;
    side[static_cast<std::size_t>(v)] = static_cast<std::uint8_t>(to);
  }
};

/// One FM pass with rollback to the best prefix; returns true if the pass
/// strictly improved (cut, excess) lexicographically. Every gain is
/// computed once per pass, then kept current by each move (Fiduccia &
/// Mattheyses), so a step costs one scan of the cached gains.
bool fm_pass(BisectionState& state) {
  const int n = state.hg->vertex_count();
  std::vector<bool> locked(static_cast<std::size_t>(n), false);
  std::vector<std::int64_t> gains(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    gains[static_cast<std::size_t>(v)] = state.gain(v);
  }
  std::vector<int> move_order;
  move_order.reserve(static_cast<std::size_t>(n));

  const std::int64_t start_cut = state.cut;
  const std::int64_t start_excess = state.excess();
  std::int64_t best_cut = start_cut;
  std::int64_t best_excess = start_excess;
  int best_prefix = 0;

  for (int step = 0; step < n; ++step) {
    int pick = -1;
    std::int64_t pick_gain = std::numeric_limits<std::int64_t>::min();
    for (int v = 0; v < n; ++v) {
      if (locked[static_cast<std::size_t>(v)] || !state.feasible(v)) continue;
      const std::int64_t g = gains[static_cast<std::size_t>(v)];
      if (g > pick_gain) {
        pick_gain = g;
        pick = v;
      }
    }
    if (pick < 0) break;
    SITAM_DCHECK(pick_gain == state.gain(pick));
    state.move(pick, gains);
    locked[static_cast<std::size_t>(pick)] = true;
    move_order.push_back(pick);
    const std::int64_t ex = state.excess();
    if (state.cut < best_cut ||
        (state.cut == best_cut && ex < best_excess)) {
      best_cut = state.cut;
      best_excess = ex;
      best_prefix = static_cast<int>(move_order.size());
    }
  }

  // Roll back everything after the best prefix.
  for (int i = static_cast<int>(move_order.size()) - 1; i >= best_prefix;
       --i) {
    state.move(move_order[static_cast<std::size_t>(i)]);
  }
  return best_cut < start_cut ||
         (best_cut == start_cut && best_excess < start_excess);
}

void refine(BisectionState& state, int max_passes) {
  for (int pass = 0; pass < max_passes; ++pass) {
    if (!fm_pass(state)) break;
  }
}

// ---------------------------------------------------------------------------
// Initial partition: greedy BFS growth to the target weight.
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> grow_initial(const Hypergraph& hg,
                                       const std::vector<std::vector<int>>& inc,
                                       std::int64_t target0, Rng& rng) {
  const int n = hg.vertex_count();
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n), 1);
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<int> frontier;
  std::int64_t weight0 = 0;

  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  std::size_t next_seed = 0;

  while (weight0 < target0) {
    int v = -1;
    while (!frontier.empty()) {
      const int cand = frontier.back();
      frontier.pop_back();
      if (!visited[static_cast<std::size_t>(cand)]) {
        v = cand;
        break;
      }
    }
    if (v < 0) {
      while (next_seed < order.size() &&
             visited[static_cast<std::size_t>(order[next_seed])]) {
        ++next_seed;
      }
      if (next_seed >= order.size()) break;
      v = order[next_seed];
    }
    visited[static_cast<std::size_t>(v)] = true;
    const std::int64_t w = hg.vertex_weights[static_cast<std::size_t>(v)];
    // Stop before overshooting badly: add the vertex only if it brings us
    // closer to the target (always add when part 0 is still empty).
    if (weight0 > 0 && weight0 + w - target0 > target0 - weight0) continue;
    side[static_cast<std::size_t>(v)] = 0;
    weight0 += w;
    for (const int e : inc[static_cast<std::size_t>(v)]) {
      for (const int u : hg.edges[static_cast<std::size_t>(e)].pins) {
        if (!visited[static_cast<std::size_t>(u)]) frontier.push_back(u);
      }
    }
  }
  return side;
}

// ---------------------------------------------------------------------------
// Coarsening: heavy-edge matching for hypergraphs.
// ---------------------------------------------------------------------------

struct CoarseLevel {
  Hypergraph graph;
  std::vector<int> fine_to_coarse;  // indexed by fine vertex
};

CoarseLevel coarsen_once(const Hypergraph& hg,
                         const std::vector<std::vector<int>>& inc,
                         std::int64_t max_cluster_weight, Rng& rng) {
  const int n = hg.vertex_count();
  std::vector<int> match(static_cast<std::size_t>(n), -1);
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);

  std::vector<std::int64_t> score(static_cast<std::size_t>(n), 0);
  std::vector<int> touched;
  for (const int v : order) {
    if (match[static_cast<std::size_t>(v)] != -1) continue;
    touched.clear();
    for (const int e : inc[static_cast<std::size_t>(v)]) {
      const Hyperedge& edge = hg.edges[static_cast<std::size_t>(e)];
      if (edge.pins.size() < 2) continue;
      // Heavy-edge score: weight spread over the edge's other pins.
      const std::int64_t contrib =
          edge.weight * 1000 / static_cast<std::int64_t>(edge.pins.size() - 1);
      for (const int u : edge.pins) {
        if (u == v || match[static_cast<std::size_t>(u)] != -1) continue;
        if (hg.vertex_weights[static_cast<std::size_t>(u)] +
                hg.vertex_weights[static_cast<std::size_t>(v)] >
            max_cluster_weight) {
          continue;
        }
        if (score[static_cast<std::size_t>(u)] == 0) touched.push_back(u);
        score[static_cast<std::size_t>(u)] += contrib;
      }
    }
    int best = -1;
    std::int64_t best_score = 0;
    for (const int u : touched) {
      if (score[static_cast<std::size_t>(u)] > best_score) {
        best_score = score[static_cast<std::size_t>(u)];
        best = u;
      }
      score[static_cast<std::size_t>(u)] = 0;
    }
    if (best >= 0) {
      match[static_cast<std::size_t>(v)] = best;
      match[static_cast<std::size_t>(best)] = v;
    }
  }

  CoarseLevel level;
  level.fine_to_coarse.assign(static_cast<std::size_t>(n), -1);
  int coarse_count = 0;
  for (int v = 0; v < n; ++v) {
    if (level.fine_to_coarse[static_cast<std::size_t>(v)] != -1) continue;
    const int buddy = match[static_cast<std::size_t>(v)];
    level.fine_to_coarse[static_cast<std::size_t>(v)] = coarse_count;
    if (buddy != -1) {
      level.fine_to_coarse[static_cast<std::size_t>(buddy)] = coarse_count;
    }
    ++coarse_count;
  }

  level.graph.vertex_weights.assign(static_cast<std::size_t>(coarse_count),
                                    0);
  for (int v = 0; v < n; ++v) {
    level.graph.vertex_weights[static_cast<std::size_t>(
        level.fine_to_coarse[static_cast<std::size_t>(v)])] +=
        hg.vertex_weights[static_cast<std::size_t>(v)];
  }
  for (const Hyperedge& e : hg.edges) {
    Hyperedge coarse_edge;
    coarse_edge.weight = e.weight;
    for (const int v : e.pins) {
      coarse_edge.pins.push_back(
          level.fine_to_coarse[static_cast<std::size_t>(v)]);
    }
    std::sort(coarse_edge.pins.begin(), coarse_edge.pins.end());
    coarse_edge.pins.erase(
        std::unique(coarse_edge.pins.begin(), coarse_edge.pins.end()),
        coarse_edge.pins.end());
    if (coarse_edge.pins.size() >= 2) {
      level.graph.edges.push_back(std::move(coarse_edge));
    }
  }
  level.graph.normalize();
  return level;
}

// ---------------------------------------------------------------------------
// One complete multilevel bisection.
// ---------------------------------------------------------------------------

struct BisectionResult {
  std::vector<std::uint8_t> side;
  std::int64_t cut = 0;
  std::int64_t excess = 0;
};

BisectionResult multilevel_bisect(const Hypergraph& hg, std::int64_t target0,
                                  const PartitionConfig& config, Rng& rng) {
  const std::int64_t total = hg.total_vertex_weight();
  const std::int64_t target1 = total - target0;
  const std::int64_t max_vertex =
      hg.vertex_weights.empty()
          ? 0
          : *std::max_element(hg.vertex_weights.begin(),
                              hg.vertex_weights.end());
  const auto limit_for = [&](std::int64_t target) {
    return std::max<std::int64_t>(
        static_cast<std::int64_t>(
            static_cast<double>(target) * (1.0 + config.epsilon)),
        max_vertex);
  };
  const std::int64_t limit0 = limit_for(target0);
  const std::int64_t limit1 = limit_for(target1);

  // Coarsening chain. Cluster weights are capped so coarse vertices stay
  // placeable on either side.
  std::vector<CoarseLevel> levels;
  const Hypergraph* current = &hg;
  while (current->vertex_count() > config.coarsen_limit) {
    const auto inc = build_incidence(*current);
    const std::int64_t max_cluster =
        std::max<std::int64_t>(1, std::min(target0, target1) / 2);
    CoarseLevel level = coarsen_once(*current, inc, max_cluster, rng);
    if (level.graph.vertex_count() >=
        current->vertex_count() * 95 / 100) {
      break;  // matching stalled; coarsening further is pointless
    }
    levels.push_back(std::move(level));
    current = &levels.back().graph;
  }

  // Multi-start initial partition + FM at the coarsest level.
  const auto coarse_inc = build_incidence(*current);
  BisectionState best_state;
  bool have_best = false;
  for (int attempt = 0; attempt < std::max(1, config.random_starts);
       ++attempt) {
    BisectionState state;
    state.init(*current, coarse_inc,
               grow_initial(*current, coarse_inc, target0, rng), limit0,
               limit1);
    refine(state, config.max_fm_passes);
    if (!have_best || state.cut < best_state.cut ||
        (state.cut == best_state.cut &&
         state.excess() < best_state.excess())) {
      best_state = state;
      have_best = true;
    }
  }
  SITAM_CHECK(have_best);
  std::vector<std::uint8_t> side = std::move(best_state.side);

  // Uncoarsen with refinement at every level.
  for (auto it = levels.rbegin(); it != levels.rend(); ++it) {
    const Hypergraph& fine =
        (std::next(it) == levels.rend()) ? hg : std::next(it)->graph;
    std::vector<std::uint8_t> fine_side(
        static_cast<std::size_t>(fine.vertex_count()));
    for (std::size_t v = 0; v < fine_side.size(); ++v) {
      fine_side[v] = side[static_cast<std::size_t>(it->fine_to_coarse[v])];
    }
    const auto fine_inc = build_incidence(fine);
    BisectionState state;
    state.init(fine, fine_inc, std::move(fine_side), limit0, limit1);
    refine(state, config.max_fm_passes);
    side = std::move(state.side);
  }

  BisectionState final_state;
  const auto inc = build_incidence(hg);
  final_state.init(hg, inc, std::move(side), limit0, limit1);
  refine(final_state, config.max_fm_passes);

  BisectionResult result;
  result.cut = final_state.cut;
  result.excess = final_state.excess();
  result.side = std::move(final_state.side);
  return result;
}

// ---------------------------------------------------------------------------
// Recursive bisection driver.
// ---------------------------------------------------------------------------

void recurse(const Hypergraph& hg, const std::vector<int>& vertex_ids, int k,
             int first_part, const PartitionConfig& config, Rng& rng,
             std::vector<int>& part_of) {
  if (k <= 1 || hg.vertex_count() == 0) {
    for (const int id : vertex_ids) {
      part_of[static_cast<std::size_t>(id)] = first_part;
    }
    return;
  }
  if (hg.vertex_count() == 1) {
    part_of[static_cast<std::size_t>(vertex_ids[0])] = first_part;
    return;
  }

  const int k0 = (k + 1) / 2;
  const int k1 = k - k0;
  const std::int64_t total = hg.total_vertex_weight();
  const std::int64_t target0 = total * k0 / k;

  const BisectionResult bisection =
      multilevel_bisect(hg, target0, config, rng);

  // Build the two sub-hypergraphs; edges cut here never contribute again.
  for (int sub = 0; sub < 2; ++sub) {
    Hypergraph sub_hg;
    std::vector<int> sub_ids;
    std::vector<int> remap(static_cast<std::size_t>(hg.vertex_count()), -1);
    for (int v = 0; v < hg.vertex_count(); ++v) {
      if (bisection.side[static_cast<std::size_t>(v)] == sub) {
        remap[static_cast<std::size_t>(v)] =
            static_cast<int>(sub_hg.vertex_weights.size());
        sub_hg.vertex_weights.push_back(
            hg.vertex_weights[static_cast<std::size_t>(v)]);
        sub_ids.push_back(vertex_ids[static_cast<std::size_t>(v)]);
      }
    }
    for (const Hyperedge& e : hg.edges) {
      Hyperedge sub_edge;
      sub_edge.weight = e.weight;
      bool crosses = false;
      for (const int v : e.pins) {
        if (bisection.side[static_cast<std::size_t>(v)] == sub) {
          sub_edge.pins.push_back(remap[static_cast<std::size_t>(v)]);
        } else {
          crosses = true;
        }
      }
      if (!crosses && sub_edge.pins.size() >= 2) {
        sub_hg.edges.push_back(std::move(sub_edge));
      }
    }
    recurse(sub_hg, sub_ids, sub == 0 ? k0 : k1,
            sub == 0 ? first_part : first_part + k0, config, rng, part_of);
  }
}

}  // namespace

Partition partition_hypergraph(const Hypergraph& hg, int k,
                               const PartitionConfig& config) {
  hg.validate();
  if (k < 1) {
    throw std::invalid_argument("partition_hypergraph: k must be >= 1");
  }
  const int n = hg.vertex_count();
  Partition result;
  result.parts = k;
  result.part_of.assign(static_cast<std::size_t>(n), 0);
  if (k == 1 || n == 0) return result;
  if (k >= n) {
    for (int v = 0; v < n; ++v) result.part_of[static_cast<std::size_t>(v)] = v;
    return result;
  }

  Rng rng(config.seed);
  std::vector<int> ids(static_cast<std::size_t>(n));
  std::iota(ids.begin(), ids.end(), 0);
  recurse(hg, ids, k, 0, config, rng, result.part_of);
  return result;
}

}  // namespace sitam
