#include "hypergraph/partition.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
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

/// FM passes until one fails to improve, at most `max_passes`; true if
/// one failed. A pass that fails rolls every move back, so the state is a
/// fixed point: refining it again changes nothing.
bool refine(BisectionState& state, int max_passes) {
  for (int pass = 0; pass < max_passes; ++pass) {
    if (!fm_pass(state)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Initial partition: greedy BFS growth to the target weight.
// ---------------------------------------------------------------------------

/// The order in which grow_initial takes seed vertices: a shuffle of the
/// `n` vertices, the attempt's only RNG draw.
std::vector<int> seed_order(int n, Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  return order;
}

std::vector<std::uint8_t> grow_initial(const Hypergraph& hg,
                                       const std::vector<std::vector<int>>& inc,
                                       std::int64_t target0,
                                       const std::vector<int>& order) {
  const int n = hg.vertex_count();
  std::vector<std::uint8_t> side(static_cast<std::size_t>(n), 1);
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<int> frontier;
  std::int64_t weight0 = 0;
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
// One multilevel bisection, in three steps: the draw (the balance limits,
// the coarsening chain and each attempt's seed order: every RNG call of the
// bisection, in the serial order), the attempts (initial partition + FM at
// the coarsest level, independent of each other) and the finish (the first
// best attempt, uncoarsened with FM at every level, split into the two
// sub-hypergraphs).
// ---------------------------------------------------------------------------

/// One attempt's refined coarsest-level bisection.
struct Attempt {
  std::vector<std::uint8_t> side;
  std::int64_t cut = 0;
  std::int64_t excess = 0;
  bool converged = false;  ///< Its refinement ended on a failed pass.
};

/// A side of a bisection: its sub-hypergraph, without the edges cut there
/// or above (they never contribute again), and the input vertex id of each
/// of its vertices.
struct Piece {
  Hypergraph graph;
  std::vector<int> ids;
};

struct Walker;

/// A bisection of the recursion, shared by every walk that reaches it: its
/// key is (parent bisection, side), which fixes the hypergraph, plus the
/// target weight of side 0 and the RNG state before it. The draw writes
/// the working state and `after`, the attempts write their slots, and the
/// finish writes `sides` and frees the rest; walks read `after` and
/// `sides` once `done` is set. `children`, `waiters` and `done` belong to
/// the tree, under its mutex_.
struct Bisection {
  Bisection(const Hypergraph& graph_in, const std::vector<int>& ids_in,
            std::int64_t target0_in, const Rng& before_in)
      : graph(graph_in), ids(ids_in), target0(target0_in),
        before(before_in) {}

  [[nodiscard]] const Hypergraph& coarsest() const {
    return levels.empty() ? graph : levels.back().graph;
  }

  const Hypergraph& graph;
  const std::vector<int>& ids;
  const std::int64_t target0;
  const Rng before;
  Rng after;
  std::int64_t limit[2] = {0, 0};
  std::vector<CoarseLevel> levels;
  std::vector<std::vector<int>> coarse_inc;
  std::vector<std::vector<int>> orders;  ///< Seed order per attempt.
  std::vector<Attempt> attempts;
  /// Attempts not landed, plus one while the drawing walk starts them.
  std::atomic<std::size_t> pending{0};
  std::array<Piece, 2> sides;
  std::array<std::vector<std::unique_ptr<Bisection>>, 2>
      children;                       // guarded_by(mutex_)
  std::vector<Walker*> waiters;       // guarded_by(mutex_)
  bool done = false;                  // guarded_by(mutex_)
};

/// Draws `b` from `rng`: the coarsening's shuffles, then each attempt's
/// seed order, in attempt order, as the serial bisection consumed them.
void draw(Bisection& b, const PartitionConfig& config, Rng& rng) {
  const Hypergraph& hg = b.graph;
  const std::int64_t target1 = hg.total_vertex_weight() - b.target0;
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
  b.limit[0] = limit_for(b.target0);
  b.limit[1] = limit_for(target1);

  // Coarsening chain. Cluster weights are capped so coarse vertices stay
  // placeable on either side.
  const Hypergraph* current = &hg;
  while (current->vertex_count() > config.coarsen_limit) {
    const auto inc = build_incidence(*current);
    const std::int64_t max_cluster =
        std::max<std::int64_t>(1, std::min(b.target0, target1) / 2);
    CoarseLevel level = coarsen_once(*current, inc, max_cluster, rng);
    if (level.graph.vertex_count() >=
        current->vertex_count() * 95 / 100) {
      break;  // matching stalled; coarsening further is pointless
    }
    b.levels.push_back(std::move(level));
    current = &b.levels.back().graph;
  }
  b.coarse_inc = build_incidence(*current);
  const auto attempts =
      static_cast<std::size_t>(std::max(1, config.random_starts));
  for (std::size_t a = 0; a < attempts; ++a) {
    b.orders.push_back(seed_order(current->vertex_count(), rng));
  }
  b.attempts.resize(attempts);
  b.after = rng;
}

/// Attempt `a`: grows its initial partition at the coarsest level and
/// refines it.
void run_attempt(Bisection& b, std::size_t a, const PartitionConfig& config) {
  const Hypergraph& coarse = b.coarsest();
  BisectionState state;
  state.init(coarse, b.coarse_inc,
             grow_initial(coarse, b.coarse_inc, b.target0, b.orders[a]),
             b.limit[0], b.limit[1]);
  b.orders[a] = {};
  Attempt& slot = b.attempts[a];
  slot.converged = refine(state, config.max_fm_passes);
  slot.cut = state.cut;
  slot.excess = state.excess();
  slot.side = std::move(state.side);
}

/// Picks the first attempt of least (cut, excess), as the serial loop kept
/// it, uncoarsens it with FM at every level and builds the two sides.
void finish(Bisection& b, const PartitionConfig& config) {
  std::size_t best = 0;
  for (std::size_t a = 1; a < b.attempts.size(); ++a) {
    const Attempt& x = b.attempts[a];
    const Attempt& y = b.attempts[best];
    if (x.cut < y.cut || (x.cut == y.cut && x.excess < y.excess)) best = a;
  }
  std::vector<std::uint8_t> side = std::move(b.attempts[best].side);
  const bool converged = b.attempts[best].converged;

  const Hypergraph& hg = b.graph;
  for (auto it = b.levels.rbegin(); it != b.levels.rend(); ++it) {
    const Hypergraph& fine =
        (std::next(it) == b.levels.rend()) ? hg : std::next(it)->graph;
    std::vector<std::uint8_t> fine_side(
        static_cast<std::size_t>(fine.vertex_count()));
    for (std::size_t v = 0; v < fine_side.size(); ++v) {
      fine_side[v] = side[static_cast<std::size_t>(it->fine_to_coarse[v])];
    }
    const auto fine_inc = build_incidence(fine);
    BisectionState state;
    state.init(fine, fine_inc, std::move(fine_side), b.limit[0], b.limit[1]);
    refine(state, config.max_fm_passes);
    side = std::move(state.side);
  }
  // Uncoarsened, or not yet at a fixed point: refine on `hg` itself.
  if (!b.levels.empty() || !converged) {
    const auto inc = build_incidence(hg);
    BisectionState final_state;
    final_state.init(hg, inc, std::move(side), b.limit[0], b.limit[1]);
    refine(final_state, config.max_fm_passes);
    side = std::move(final_state.side);
  }
  b.levels = {};
  b.coarse_inc = {};
  b.orders = {};
  b.attempts = {};

  std::vector<int> remap(static_cast<std::size_t>(hg.vertex_count()));
  for (int v = 0; v < hg.vertex_count(); ++v) {
    Piece& piece = b.sides[side[static_cast<std::size_t>(v)]];
    remap[static_cast<std::size_t>(v)] =
        static_cast<int>(piece.graph.vertex_weights.size());
    piece.graph.vertex_weights.push_back(
        hg.vertex_weights[static_cast<std::size_t>(v)]);
    piece.ids.push_back(b.ids[static_cast<std::size_t>(v)]);
  }
  // An edge stays in its side's subproblem if all its pins (at least two)
  // are there; an edge cut here never contributes again.
  for (const Hyperedge& e : hg.edges) {
    if (e.pins.size() < 2) continue;
    const std::uint8_t s = side[static_cast<std::size_t>(e.pins.front())];
    if (!std::all_of(e.pins.begin(), e.pins.end(), [&](int v) {
          return side[static_cast<std::size_t>(v)] == s;
        })) {
      continue;
    }
    Hyperedge sub_edge;
    sub_edge.weight = e.weight;
    sub_edge.pins.reserve(e.pins.size());
    for (const int v : e.pins) {
      sub_edge.pins.push_back(remap[static_cast<std::size_t>(v)]);
    }
    b.sides[s].graph.edges.push_back(std::move(sub_edge));
  }
}

// ---------------------------------------------------------------------------
// The recursion as walks of one task tree.
// ---------------------------------------------------------------------------

/// The recursive bisection into `k` parts: a stack of (hypergraph, parts,
/// first part id) steps, walked side 0 first, and the RNG that flows
/// through it.
struct Walker {
  struct Step {
    const Hypergraph* graph = nullptr;
    const std::vector<int>* ids = nullptr;
    Bisection* parent = nullptr;  ///< Null at the top.
    int side = 0;
    int k = 0;
    int first_part = 0;
  };

  std::size_t index = 0;  ///< Into start_partitions' k list.
  int k = 0;
  Rng rng;
  std::vector<int> part_of;
  std::vector<Step> stack;
  /// The bisection this walk waits for or has just reached, and how its
  /// step splits the parts.
  Bisection* at = nullptr;
  int k0 = 0;
  int k1 = 0;
  int first_part = 0;
};

class Tree : public std::enable_shared_from_this<Tree> {
 public:
  Tree(const Hypergraph& hg, const PartitionConfig& config, TaskGroup& group,
       PartitionDone done)
      : hg_(hg), config_(config), group_(group), done_(std::move(done)),
        ids_(static_cast<std::size_t>(hg.vertex_count())) {
    std::iota(ids_.begin(), ids_.end(), 0);
  }

  /// Adds the walk of ks[index] = k; before the first start(). For
  /// 1 < vertex_count() <= k every vertex is its own part, with no step.
  void add(std::size_t index, int k) {
    auto w = std::make_unique<Walker>();
    w->index = index;
    w->k = k;
    w->rng = Rng(config_.seed);
    w->part_of.assign(static_cast<std::size_t>(hg_.vertex_count()), 0);
    if (k > 1 && k >= hg_.vertex_count()) {
      std::iota(w->part_of.begin(), w->part_of.end(), 0);
    } else {
      w->stack.push_back(Walker::Step{&hg_, &ids_, nullptr, 0, k, 0});
    }
    walkers_.push_back(std::move(w));
  }

  /// Starts every walk as a task.
  void start() {
    for (const auto& w : walkers_) resume(*w);
  }

 private:
  void resume(Walker& w) {
    group_.run(JobPriority::kHigh,
               [self = shared_from_this(), &w] { self->walk(w); });
  }

  /// Runs `w` until it waits on a bisection in flight or delivers its
  /// partition. A bisection whose attempts all land before their starter
  /// lets go (every one, on an executor of one thread) is finished here
  /// and the walk goes on in this loop, so no chain of bisections nests.
  void walk(Walker& w) {
    for (;;) {
      if (w.at != nullptr) {
        // `at` is done: its sides are the next steps, side 0 first.
        Bisection& b = *std::exchange(w.at, nullptr);
        w.rng = b.after;
        w.stack.push_back(Walker::Step{&b.sides[1].graph, &b.sides[1].ids,
                                       &b, 1, w.k1, w.first_part + w.k0});
        w.stack.push_back(Walker::Step{&b.sides[0].graph, &b.sides[0].ids,
                                       &b, 0, w.k0, w.first_part});
      }
      Walker::Step step;
      bool split = false;
      while (!split && !w.stack.empty()) {
        step = w.stack.back();
        w.stack.pop_back();
        split = step.k > 1 && step.graph->vertex_count() > 1;
        if (!split) {
          for (const int id : *step.ids) {
            w.part_of[static_cast<std::size_t>(id)] = step.first_part;
          }
        }
      }
      if (!split) {
        Partition partition;
        partition.parts = w.k;
        partition.part_of = std::move(w.part_of);
        done_(w.index, std::move(partition));
        return;
      }

      const std::int64_t target0 =
          step.graph->total_vertex_weight() * ((step.k + 1) / 2) / step.k;
      w.k0 = (step.k + 1) / 2;
      w.k1 = step.k - w.k0;
      w.first_part = step.first_part;
      bool created = false;
      bool ready = false;
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        auto& list = step.parent == nullptr
                         ? roots_
                         : step.parent->children[static_cast<std::size_t>(
                               step.side)];
        for (const auto& b : list) {
          if (b->target0 == target0 && b->before == w.rng) w.at = b.get();
        }
        if (w.at == nullptr) {
          list.push_back(std::make_unique<Bisection>(*step.graph, *step.ids,
                                                     target0, w.rng));
          w.at = list.back().get();
          created = true;
        }
        // The creator waits too, registered under the lock that publishes
        // the bisection, so whoever finishes it continues every walk.
        ready = w.at->done;
        if (!ready) w.at->waiters.push_back(&w);
      }
      if (!created) {
        SITAM_COUNTER("hypergraph.bisections_shared", 1);
        if (ready) continue;
        return;
      }
      SITAM_COUNTER("hypergraph.bisections", 1);
      Bisection& b = *w.at;
      {
        SITAM_TRACE_SPAN_ARG("hypergraph.bisect", b.graph.vertex_count());
        draw(b, config_, w.rng);
      }
      b.pending.store(b.attempts.size() + 1, std::memory_order_relaxed);
      for (std::size_t a = 0; a < b.attempts.size(); ++a) {
        group_.run(JobPriority::kHigh,
                   [self = shared_from_this(), &b, a] { self->attempt(b, a); });
      }
      if (b.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
      for (Walker* other : complete(b)) {
        if (other != &w) resume(*other);
      }
    }
  }

  void attempt(Bisection& b, std::size_t a) {
    {
      SITAM_TRACE_SPAN_ARG("hypergraph.attempt", static_cast<std::int64_t>(a));
      run_attempt(b, a, config_);
    }
    if (b.pending.fetch_sub(1, std::memory_order_acq_rel) != 1) return;
    const std::vector<Walker*> waiters = complete(b);
    for (std::size_t i = 1; i < waiters.size(); ++i) resume(*waiters[i]);
    walk(*waiters.front());
  }

  /// Finishes `b` once its last attempt has landed; returns the walks
  /// waiting on it, its creator among them.
  std::vector<Walker*> complete(Bisection& b) {
    {
      SITAM_TRACE_SPAN_ARG("hypergraph.bisect", b.graph.vertex_count());
      finish(b, config_);
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    b.done = true;
    return std::exchange(b.waiters, {});
  }

  const Hypergraph& hg_;
  const PartitionConfig config_;
  TaskGroup& group_;
  const PartitionDone done_;
  std::vector<int> ids_;  ///< The top step's vertex ids: 0..n-1.
  std::vector<std::unique_ptr<Walker>> walkers_;
  std::vector<std::unique_ptr<Bisection>> roots_;  // guarded_by(mutex_)
  std::mutex mutex_;
};

}  // namespace

void start_partitions(const Hypergraph& hg, std::span<const int> ks,
                      const PartitionConfig& config, TaskGroup& group,
                      PartitionDone done) {
  hg.validate();
  for (const int k : ks) {
    if (k < 1) {
      throw std::invalid_argument("partition_hypergraph: k must be >= 1");
    }
  }
  const auto tree = std::make_shared<Tree>(hg, config, group, std::move(done));
  for (std::size_t i = 0; i < ks.size(); ++i) tree->add(i, ks[i]);
  tree->start();
}

Partition partition_hypergraph(const Hypergraph& hg, int k,
                               const PartitionConfig& config) {
  Partition result;
  Executor caller(1);
  TaskGroup group(caller);
  const int ks[] = {k};
  start_partitions(hg, ks, config, group,
                   [&result](std::size_t, Partition partition) {
                     result = std::move(partition);
                   });
  group.wait();
  return result;
}

}  // namespace sitam
