// The seeded random hypergraphs the partitioner tests pin and compare.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>

#include "hypergraph/hypergraph.h"
#include "util/rng.h"

namespace sitam::testing {

/// A seeded hypergraph of `n` vertices: weights 1..20, 4n edges of 2..5
/// pins, weights 1..10.
inline Hypergraph seeded_hypergraph(int n, std::uint64_t seed) {
  Rng rng(seed);
  Hypergraph hg;
  hg.vertex_weights.resize(static_cast<std::size_t>(n));
  for (auto& w : hg.vertex_weights) {
    w = static_cast<std::int64_t>(rng.uniform(1, 20));
  }
  for (int e = 0; e < 4 * n; ++e) {
    const auto pins = std::min<std::size_t>(rng.uniform(2, 5),
                                            static_cast<std::size_t>(n));
    Hyperedge edge;
    for (const auto v :
         rng.sample_indices(static_cast<std::size_t>(n), pins)) {
      edge.pins.push_back(static_cast<int>(v));
    }
    edge.weight = static_cast<std::int64_t>(rng.uniform(1, 10));
    hg.edges.push_back(std::move(edge));
  }
  hg.normalize();
  return hg;
}

}  // namespace sitam::testing
