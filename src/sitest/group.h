// Two-dimensional SI test-set compaction: grouping (horizontal) on top of
// pattern-count compaction (vertical), per §3 of the paper.
//
// Cores are partitioned into `parts` groups by min-cut hypergraph
// partitioning (vertex = core, weight = WOC count; hyperedge = distinct
// care-core set, weight = pattern multiplicity). Patterns whose care cores
// all fall in one group are applied with a shortened length (only that
// group's WOCs are loaded; all other core boundaries are bypassed); the rest
// form a *remainder* group that still loads every core's WOCs. Each group is
// then compacted independently with the greedy clique-cover heuristic.
//
// The hypergraph, each pattern's care-core set and each pattern's kernel
// rows depend only on the raw pattern set, so one pass computes them once
// for a list of groupings: it interns each care set to an id and encodes
// the pattern's rows (PatternRows, pattern/compaction.h), pattern by
// pattern, as it reads a store while the store is drawn; every grouping's
// buckets are id lists decided once per distinct set, and every group's
// compaction reads the shared rows. start_si_test_sets is the pass, as
// nodes of the caller's job graph (TaskGroup, util/thread_pool.h);
// build_si_test_sets runs it over a span and waits. A pattern with no care core
// (all don't-care, no bus line) loads no boundary; at i >= 2 it goes to
// the remainder group (at i = 1 the single group, as every pattern does).
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <span>
#include <string>
#include <vector>

#include "hypergraph/partition.h"
#include "interconnect/terminal_space.h"
#include "pattern/compaction.h"
#include "pattern/pattern.h"
#include "pattern/raw_store.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace sitam {

/// One schedulable SI test (a group of compacted patterns).
struct SiTestGroup {
  std::string label;          ///< "g1", "g2", ..., "rem".
  std::vector<int> cores;     ///< Sorted 0-based core indices whose WOCs are
                              ///< loaded by every pattern of this group.
  std::int64_t patterns = 0;  ///< Compacted pattern count.
  std::int64_t raw_patterns = 0;  ///< Pattern count before compaction.
  bool is_remainder = false;
  /// Peak test power while this group applies patterns (arbitrary units;
  /// 0 = not modelled). See assign_si_power().
  std::int64_t power = 0;
};

struct SiTestSet {
  int parts = 1;                    ///< Grouping parameter i of the paper.
  std::vector<SiTestGroup> groups;  ///< Non-empty groups only.

  [[nodiscard]] std::int64_t total_patterns() const;
  [[nodiscard]] std::int64_t total_raw_patterns() const;
};

struct GroupingConfig {
  PartitionConfig partition;  ///< Partitioner knobs (seeded, deterministic).
  int bus_width = 32;         ///< Bus postfix width (bus id bound).
  /// Vertical-compaction knobs; `threads` must be >= 1 and changes
  /// nothing (see CompactionConfig).
  CompactionConfig compaction;
};

/// Builds the core-level hypergraph of §3/Fig. 2 from a raw pattern set:
/// one edge per distinct non-empty care-core set, in lexicographic order
/// (the order Hypergraph::normalize() gives). Throws std::out_of_range for
/// a terminal outside `terminals` or a bus driver outside its cores.
[[nodiscard]] Hypergraph build_core_hypergraph(
    std::span<const SiPattern> patterns, const TerminalSpace& terminals);

/// Assigns every group a peak-power rating:
///   power = base_units + units_per_cell * Σ boundary cells of its cores.
/// The per-cell term models boundary switching; `base_units` models the
/// fixed cost of an active test session (clock tree, ATE channel drivers),
/// which is what makes concurrent sessions compete for the budget even
/// when their cores are disjoint. Used by the power-constrained scheduling
/// extension.
void assign_si_power(SiTestSet& set, const Soc& soc,
                     std::int64_t units_per_cell = 1,
                     std::int64_t base_units = 0);

/// Receives grouping g's finished test set (g indexes the groupings).
using SetDone = std::function<void(std::size_t, SiTestSet)>;

/// Full two-dimensional compaction for every grouping in `groupings` (one
/// test set each, in that order) over one raw pattern set that `draw`
/// writes into `store` (open, and closed here), as nodes of `group`'s job
/// graph on group.executor(): partitions the cores into `parts` groups,
/// buckets the patterns, and vertically compacts each bucket. parts == 1
/// degenerates to pure one-dimensional (count-only) compaction with a
/// single group spanning all cores.
///
/// Three jobs share the set: `draw` writes the store; the index reads
/// each store chunk as it is published, interns its care sets, encodes
/// its rows and frees it; and the i = 1 count places each row chunk the
/// index publishes. On a pool (executor size > 1) `draw` runs on a worker
/// while the index runs on the calling thread and the count's stage tasks
/// on the other workers; with no workers the three run one after another
/// on the caller, over the same chunks in the same order. The store's
/// chunks are freed as they are read, so it cannot be read again. Once
/// the index is closed one partition tree (start_partitions) partitions
/// the cores for every grouping i >= 2, computing the bisections their
/// recursions share once, and as each grouping's partition ends, its
/// compactions start longest first, each as (stage, chunk) tasks
/// (start_greedy_count). No job waits on another. The result does not
/// depend on the executor.
///
/// This returns once the store is read and indexed, with the partitions
/// and counts left running in `group`. As the last piece of groupings[g]
/// lands, `on_set(g, set)` runs on the thread that landed it (on one
/// thread, before this returns). The returned future is ready once no
/// job of the pass is left, and so its encoded rows and care-set index
/// are freed: a caller that waits on it before it draws again holds one
/// pass's rows at a time. `cancel` is checked after `draw`, before each
/// chunk the count or the index reads, before the partitions start, as
/// each grouping's partition is handed over, and before each stage task
/// (nullptr = never cancelled).
///
/// Throws std::invalid_argument for parts < 1 or
/// config.compaction.threads < 1, before anything starts. The draw's and
/// the index's errors (std::out_of_range for a terminal, bus line or bus
/// driver outside the declared space, checked by the index in store
/// order; sitam::Cancelled) are thrown here, once the draw has returned;
/// the jobs' errors go to `group`, whose wait() rethrows the first.
[[nodiscard]] std::future<void> start_si_test_sets(
    RawPatternStore& store, const std::function<void()>& draw,
    const TerminalSpace& terminals, std::span<const int> groupings,
    const GroupingConfig& config, TaskGroup& group,
    const CancelToken* cancel, SetDone on_set);

/// The same pass over `patterns`, drawn into a store of its own, with its
/// jobs on `executor`: start_si_test_sets, then its group's wait. Every
/// started job has finished when this returns or throws.
[[nodiscard]] std::vector<SiTestSet> build_si_test_sets(
    std::span<const SiPattern> patterns, const TerminalSpace& terminals,
    std::span<const int> groupings, const GroupingConfig& config,
    Executor& executor, const CancelToken* cancel = nullptr);

/// One grouping of build_si_test_sets, on the caller's thread.
[[nodiscard]] SiTestSet build_si_test_set(std::span<const SiPattern> patterns,
                                          const TerminalSpace& terminals,
                                          int parts,
                                          const GroupingConfig& config);

}  // namespace sitam
