// Multilevel k-way hypergraph partitioning (the hMetis substitute).
//
// Pipeline per bisection: heavy-edge coarsening -> greedy BFS-growth initial
// partition (multi-start) -> Fiduccia–Mattheyses refinement with rollback to
// the best prefix -> uncoarsening with FM at every level. k-way partitions
// are produced by recursive bisection with proportional weight targets;
// hyperedges cut at an outer level are excluded from the subproblems, so the
// objective is exactly the weight of hyperedges spanning more than one part.
//
// Every partition is a walk of one task tree (start_partitions): each
// bisection's multi-start attempts run as tasks, and the walks of several k
// over one hypergraph compute the bisections they have in common once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "hypergraph/hypergraph.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sitam {

struct PartitionConfig {
  /// Balance tolerance: a part may weigh up to (1+epsilon) * its
  /// proportional target (and never less than the heaviest single vertex —
  /// otherwise some instances would be infeasible).
  double epsilon = 0.10;
  /// Independent multi-start attempts per bisection; best cut wins.
  int random_starts = 8;
  /// Maximum FM passes per refinement stage.
  int max_fm_passes = 16;
  /// Coarsening stops at this many vertices.
  int coarsen_limit = 48;
  std::uint64_t seed = 0x5eedULL;
};

/// Receives the partition of ks[i] (i indexes start_partitions' list).
using PartitionDone = std::function<void(std::size_t, Partition)>;

/// Partitions `hg` into ks[i] parts for every i, as nodes of `group`'s job
/// graph on group.executor(). Each k walks the recursive bisection in the
/// serial order, side 0 first. A walk that reaches a bisection another walk
/// has reached (same parent bisection and side, same target weight, same
/// RNG state) reuses it, waiting by continuation while it is in flight, so
/// for k = 2, 4 and 8 the top bisection is computed once and the next one
/// once for 4 and 8. A computed bisection draws its coarsening and its
/// attempts' seed orders on the thread that reached it, in the serial
/// order, and runs each of the config.random_starts attempts as a task;
/// the last to land picks the first best, finishes the bisection and
/// continues the walks waiting on it. So every partition equals a serial
/// recursion's, on any executor.
///
/// `done(i, partition)` runs as ks[i]'s walk ends, on the thread that ends
/// it. For k >= vertex_count() every vertex gets its own part. `hg` must
/// stay alive until the last `done` has begun. Throws
/// std::invalid_argument for a k < 1 or an invalid hypergraph, before
/// anything starts; an exception `done` throws goes to `group`.
void start_partitions(const Hypergraph& hg, std::span<const int> ks,
                      const PartitionConfig& config, TaskGroup& group,
                      PartitionDone done);

/// Partitions `hg` into `k` parts: start_partitions of {k} on the caller.
/// Throws std::invalid_argument for k < 1 or an invalid hypergraph.
/// Deterministic for a fixed config.
[[nodiscard]] Partition partition_hypergraph(const Hypergraph& hg, int k,
                                             const PartitionConfig& config = {});

}  // namespace sitam
