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
// The hypergraph and each pattern's care-core set depend only on the raw
// pattern set, so build_si_test_sets computes them once for a list of
// groupings: care sets are interned to ids pattern by pattern (so the
// index can read a store while it is drawn), every grouping's buckets are
// index lists decided once per distinct set, and all groups' compactions
// run as one longest-first job list. A pattern with no care core (all
// don't-care, no bus line) loads no boundary; at i >= 2 it goes to the
// remainder group (at i = 1 the single group, as every pattern does).
#pragma once

#include <cstdint>
#include <functional>
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
  /// True iff any pattern of this group occupies shared-bus lines; with
  /// EvaluatorOptions::exclusive_bus the bus becomes a scheduling resource
  /// (at most one bus-using SI test at a time).
  bool uses_bus = false;
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

/// Full two-dimensional compaction for every grouping in `groupings` (one
/// test set each, in that order) over one raw pattern set: partitions the
/// cores into `parts` groups, buckets the patterns, and vertically compacts
/// each bucket. parts == 1 degenerates to pure one-dimensional (count-only)
/// compaction with a single group spanning all cores.
///
/// The i = 1 count starts first; the partitions of every grouping i >= 2
/// run beside it, then their groups' compactions start longest first, each
/// as (stage, chunk) tasks (start_greedy_count). All of it runs on
/// min(`threads`, jobs) pool workers; threads == 1 runs it on the caller.
/// The result does not depend on `threads`. `cancel` is checked before
/// each partition and compaction starts and before each stage task
/// (nullptr = never cancelled).
///
/// Throws std::invalid_argument for parts < 1, threads < 1 or
/// config.compaction.threads < 1, std::out_of_range for a terminal, bus
/// line or bus driver outside the declared space (checked in input order
/// before any compaction), and sitam::Cancelled.
[[nodiscard]] std::vector<SiTestSet> build_si_test_sets(
    std::span<const SiPattern> patterns, const TerminalSpace& terminals,
    std::span<const int> groupings, const GroupingConfig& config,
    int threads, const CancelToken* cancel = nullptr);

/// The same pass over a raw set that `draw` writes into `store` (open, and
/// closed here), with its jobs on `executor` — the workload prepare's
/// pipeline. Three jobs share the store: `draw` writes it, and the i = 1
/// count and the care-set index read it. On a pool (executor.size() > 1) the
/// count and the index start before `draw` is called and each takes every
/// chunk as soon as the store publishes it (the count queues it for its
/// stage tasks), so once the store is closed only the index's renumbering
/// and the count's queued tasks are left; on the caller both run the same
/// chunks in the same order once `draw` returns. The partitions and the
/// i >= 2 jobs follow as in the span form, which this matches for any
/// executor. Ids are checked by the index in store order, with the span
/// form's exceptions. `cancel` is also checked after `draw` and before
/// each chunk the count or the index reads. Every started job has
/// finished when this returns or throws.
[[nodiscard]] std::vector<SiTestSet> build_si_test_sets(
    RawPatternStore& store, const std::function<void()>& draw,
    const TerminalSpace& terminals, std::span<const int> groupings,
    const GroupingConfig& config, Executor& executor,
    const CancelToken* cancel = nullptr);

/// One grouping of build_si_test_sets, on the caller's thread.
[[nodiscard]] SiTestSet build_si_test_set(std::span<const SiPattern> patterns,
                                          const TerminalSpace& terminals,
                                          int parts,
                                          const GroupingConfig& config);

}  // namespace sitam
