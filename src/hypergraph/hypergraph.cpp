#include "hypergraph/hypergraph.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace sitam {

std::int64_t Hypergraph::total_vertex_weight() const {
  return std::accumulate(vertex_weights.begin(), vertex_weights.end(),
                         std::int64_t{0});
}

std::int64_t Hypergraph::total_edge_weight() const {
  std::int64_t sum = 0;
  for (const Hyperedge& e : edges) sum += e.weight;
  return sum;
}

void Hypergraph::normalize() {
  for (Hyperedge& e : edges) {
    std::sort(e.pins.begin(), e.pins.end());
    e.pins.erase(std::unique(e.pins.begin(), e.pins.end()), e.pins.end());
  }
  std::erase_if(edges, [](const Hyperedge& e) { return e.pins.empty(); });
  // Lexicographic pin order, then one edge per run of equal pin sets.
  std::sort(edges.begin(), edges.end(),
            [](const Hyperedge& a, const Hyperedge& b) {
              return a.pins < b.pins;
            });
  std::size_t kept = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (kept > 0 && edges[kept - 1].pins == edges[i].pins) {
      edges[kept - 1].weight += edges[i].weight;
    } else {
      if (kept != i) edges[kept] = std::move(edges[i]);
      ++kept;
    }
  }
  edges.resize(kept);
}

void Hypergraph::validate() const {
  const int v = vertex_count();
  for (std::size_t i = 0; i < vertex_weights.size(); ++i) {
    if (vertex_weights[i] < 0) {
      throw std::invalid_argument("hypergraph: negative weight on vertex " +
                                  std::to_string(i));
    }
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Hyperedge& e = edges[i];
    if (e.weight <= 0) {
      throw std::invalid_argument("hypergraph: non-positive weight on edge " +
                                  std::to_string(i));
    }
    if (e.pins.empty()) {
      throw std::invalid_argument("hypergraph: empty edge " +
                                  std::to_string(i));
    }
    for (std::size_t p = 0; p < e.pins.size(); ++p) {
      if (e.pins[p] < 0 || e.pins[p] >= v) {
        throw std::invalid_argument("hypergraph: edge " + std::to_string(i) +
                                    " pin out of range");
      }
      if (p > 0 && e.pins[p] <= e.pins[p - 1]) {
        throw std::invalid_argument("hypergraph: edge " + std::to_string(i) +
                                    " pins not sorted/unique");
      }
    }
  }
}

bool Partition::is_cut(const Hyperedge& edge) const {
  if (edge.pins.empty()) return false;
  const int first = part_of[static_cast<std::size_t>(edge.pins.front())];
  for (const int pin : edge.pins) {
    if (part_of[static_cast<std::size_t>(pin)] != first) return true;
  }
  return false;
}

std::int64_t Partition::cut_weight(const Hypergraph& hg) const {
  std::int64_t cut = 0;
  for (const Hyperedge& e : hg.edges) {
    if (is_cut(e)) cut += e.weight;
  }
  return cut;
}

std::int64_t Partition::cut_edges(const Hypergraph& hg) const {
  std::int64_t cut = 0;
  for (const Hyperedge& e : hg.edges) {
    if (is_cut(e)) ++cut;
  }
  return cut;
}

std::vector<std::int64_t> Partition::part_weights(const Hypergraph& hg) const {
  std::vector<std::int64_t> weights(static_cast<std::size_t>(parts), 0);
  for (std::size_t v = 0; v < part_of.size(); ++v) {
    weights[static_cast<std::size_t>(part_of[v])] += hg.vertex_weights[v];
  }
  return weights;
}

double Partition::imbalance(const Hypergraph& hg) const {
  if (parts <= 0) return 0.0;
  const auto weights = part_weights(hg);
  const std::int64_t max_weight =
      *std::max_element(weights.begin(), weights.end());
  const double avg =
      static_cast<double>(hg.total_vertex_weight()) / parts;
  if (avg <= 0) return 0.0;
  return static_cast<double>(max_weight) / avg - 1.0;
}

}  // namespace sitam
