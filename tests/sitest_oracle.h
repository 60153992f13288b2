// Test-only oracle for the 2-D compaction of src/sitest: one grouping built
// the direct way, with nothing shared between groupings. It asks every
// pattern for its care cores (SiPattern::care_cores), merges the care sets
// with Hypergraph::normalize, copies each pattern into its bucket and
// compacts each bucket with compact_greedy. build_si_test_sets must give
// the same test set, field by field, for every grouping. run_pass drives
// start_si_test_sets over a store a test draws, as the prepare does.
#pragma once

#include <algorithm>
#include <functional>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "hypergraph/partition.h"
#include "interconnect/terminal_space.h"
#include "pattern/compaction.h"
#include "pattern/pattern.h"
#include "pattern/raw_store.h"
#include "sitest/group.h"
#include "util/cancel.h"
#include "util/thread_pool.h"

namespace sitam::testing {

inline SiTestSet oracle_si_test_set(std::span<const SiPattern> patterns,
                                    const TerminalSpace& terminals,
                                    int parts, const GroupingConfig& config) {
  const int cores = terminals.core_count();
  std::vector<int> all_cores(static_cast<std::size_t>(cores));
  std::iota(all_cores.begin(), all_cores.end(), 0);

  SiTestSet set;
  set.parts = parts;
  const auto add_group = [&](std::string label, std::vector<int> group_cores,
                             bool is_remainder,
                             std::span<const SiPattern> bucket) {
    if (bucket.empty()) return;
    SiTestGroup group;
    group.label = std::move(label);
    group.cores = std::move(group_cores);
    group.is_remainder = is_remainder;
    group.raw_patterns = static_cast<std::int64_t>(bucket.size());
    group.patterns = static_cast<std::int64_t>(
        compact_greedy(bucket, terminals.total(), config.bus_width)
            .patterns.size());
    set.groups.push_back(std::move(group));
  };

  if (parts == 1) {
    add_group("g1", all_cores, false, patterns);
    return set;
  }

  Hypergraph hg;
  for (int core = 0; core < cores; ++core) {
    hg.vertex_weights.push_back(terminals.woc(core));
  }
  for (const SiPattern& p : patterns) {
    hg.edges.push_back(Hyperedge{p.care_cores(terminals), 1});
  }
  hg.normalize();
  const Partition partition =
      partition_hypergraph(hg, parts, config.partition);

  std::vector<std::vector<SiPattern>> buckets(
      static_cast<std::size_t>(parts));
  std::vector<SiPattern> remainder;
  for (const SiPattern& p : patterns) {
    const std::vector<int> care = p.care_cores(terminals);
    // A pattern with no care core belongs to the remainder group.
    if (care.empty()) {
      remainder.push_back(p);
      continue;
    }
    const int part = partition.part_of[static_cast<std::size_t>(care[0])];
    const bool local = std::all_of(care.begin(), care.end(), [&](int c) {
      return partition.part_of[static_cast<std::size_t>(c)] == part;
    });
    (local ? buckets[static_cast<std::size_t>(part)] : remainder)
        .push_back(p);
  }
  for (int part = 0; part < parts; ++part) {
    std::vector<int> group_cores;
    for (int core = 0; core < cores; ++core) {
      if (partition.part_of[static_cast<std::size_t>(core)] == part) {
        group_cores.push_back(core);
      }
    }
    add_group('g' + std::to_string(part + 1), std::move(group_cores), false,
              buckets[static_cast<std::size_t>(part)]);
  }
  add_group("rem", all_cores, true, remainder);
  return set;
}

/// The test sets of the pass over what `draw` writes into `store`, with
/// its jobs on `executor`: start_si_test_sets, then its group's wait.
inline std::vector<SiTestSet> run_pass(RawPatternStore& store,
                                       const std::function<void()>& draw,
                                       const TerminalSpace& terminals,
                                       std::span<const int> groupings,
                                       const GroupingConfig& config,
                                       Executor& executor,
                                       const CancelToken* cancel = nullptr) {
  std::vector<SiTestSet> sets(groupings.size());
  TaskGroup group(executor);
  (void)start_si_test_sets(
      store, draw, terminals, groupings, config, group, cancel,
      [&sets](std::size_t g, SiTestSet set) { sets[g] = std::move(set); });
  group.wait();
  return sets;
}

}  // namespace sitam::testing
