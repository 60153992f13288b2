#include "sitest/group.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "util/check.h"

namespace sitam {

std::int64_t SiTestSet::total_patterns() const {
  std::int64_t sum = 0;
  for (const SiTestGroup& g : groups) sum += g.patterns;
  return sum;
}

std::int64_t SiTestSet::total_raw_patterns() const {
  std::int64_t sum = 0;
  for (const SiTestGroup& g : groups) sum += g.raw_patterns;
  return sum;
}

void assign_si_power(SiTestSet& set, const Soc& soc,
                     std::int64_t units_per_cell, std::int64_t base_units) {
  if (units_per_cell < 0 || base_units < 0) {
    throw std::invalid_argument("assign_si_power: negative unit");
  }
  for (SiTestGroup& group : set.groups) {
    std::int64_t cells = 0;
    for (const int core : group.cores) {
      if (core < 0 || core >= soc.core_count()) {
        throw std::invalid_argument(
            "assign_si_power: group references a core outside the SOC");
      }
      cells += soc.modules[static_cast<std::size_t>(core)].boundary_cells();
    }
    group.power = base_units + cells * units_per_cell;
  }
}

Hypergraph build_core_hypergraph(std::span<const SiPattern> patterns,
                                 const TerminalSpace& terminals) {
  Hypergraph hg;
  hg.vertex_weights.reserve(
      static_cast<std::size_t>(terminals.core_count()));
  for (int core = 0; core < terminals.core_count(); ++core) {
    hg.vertex_weights.push_back(terminals.woc(core));
  }
  for (const SiPattern& p : patterns) {
    Hyperedge edge;
    edge.pins = p.care_cores(terminals);
    edge.weight = 1;
    if (!edge.pins.empty()) hg.edges.push_back(std::move(edge));
  }
  hg.normalize();  // merges identical care sets, summing multiplicities
  return hg;
}

SiTestSet build_si_test_set(std::span<const SiPattern> patterns,
                            const TerminalSpace& terminals, int parts,
                            const GroupingConfig& config) {
  if (parts < 1) {
    throw std::invalid_argument("build_si_test_set: parts must be >= 1");
  }
  const int cores = terminals.core_count();
  std::vector<int> all_cores(static_cast<std::size_t>(cores));
  std::iota(all_cores.begin(), all_cores.end(), 0);

  SiTestSet set;
  set.parts = parts;

  const auto compact = [&](std::span<const SiPattern> bucket) {
    return compact_greedy(bucket, terminals.total(), config.bus_width,
                          config.compaction);
  };
  const auto any_bus = [](std::span<const SiPattern> bucket) {
    for (const SiPattern& p : bucket) {
      if (!p.bus_bits().empty()) return true;
    }
    return false;
  };

  if (parts == 1) {
    // Pure vertical compaction; every pattern loads all cores' WOCs.
    if (!patterns.empty()) {
      const CompactionResult compacted = compact(patterns);
      SiTestGroup group;
      group.label = "g1";
      group.cores = all_cores;
      group.raw_patterns = static_cast<std::int64_t>(patterns.size());
      group.patterns =
          static_cast<std::int64_t>(compacted.patterns.size());
      group.uses_bus = any_bus(patterns);
      set.groups.push_back(std::move(group));
    }
    return set;
  }

  // Partition cores to minimize the (weighted) number of cross-group
  // patterns; then bucket each pattern by the part of its care cores.
  const Hypergraph hg = build_core_hypergraph(patterns, terminals);
  const Partition partition =
      partition_hypergraph(hg, parts, config.partition);

  std::vector<std::vector<SiPattern>> buckets(
      static_cast<std::size_t>(parts));
  std::vector<SiPattern> remainder;
  for (const SiPattern& p : patterns) {
    const auto care = p.care_cores(terminals);
    // Per-pattern in the bucketing loop: debug/sanitizer builds only. An
    // all-don't-care pattern would be dropped by compaction upstream.
    SITAM_DCHECK_MSG(!care.empty(), "pattern with no care cores");
    const int part = partition.part_of[static_cast<std::size_t>(care[0])];
    const bool local = std::all_of(care.begin(), care.end(), [&](int c) {
      return partition.part_of[static_cast<std::size_t>(c)] == part;
    });
    if (local) {
      buckets[static_cast<std::size_t>(part)].push_back(p);
    } else {
      remainder.push_back(p);
    }
  }

  for (int part = 0; part < parts; ++part) {
    const auto& bucket = buckets[static_cast<std::size_t>(part)];
    if (bucket.empty()) continue;
    SiTestGroup group;
    group.label = 'g' + std::to_string(part + 1);
    for (int core = 0; core < cores; ++core) {
      if (partition.part_of[static_cast<std::size_t>(core)] == part) {
        group.cores.push_back(core);
      }
    }
    group.raw_patterns = static_cast<std::int64_t>(bucket.size());
    group.patterns =
        static_cast<std::int64_t>(compact(bucket).patterns.size());
    group.uses_bus = any_bus(bucket);
    set.groups.push_back(std::move(group));
  }

  if (!remainder.empty()) {
    SiTestGroup group;
    group.label = "rem";
    group.cores = all_cores;  // cross-group patterns load every boundary
    group.is_remainder = true;
    group.raw_patterns = static_cast<std::int64_t>(remainder.size());
    group.patterns =
        static_cast<std::int64_t>(compact(remainder).patterns.size());
    group.uses_bus = any_bus(remainder);
    set.groups.push_back(std::move(group));
  }
  return set;
}

}  // namespace sitam
