#include "sitest/group.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <future>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/obs.h"
#include "pattern/packed.h"
#include "util/check.h"
#include "util/thread_pool.h"

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

namespace {

/// The care-core sets of one raw pattern set, shared by every grouping.
/// Distinct sets are numbered in lexicographic order of their sorted core
/// lists, so the empty set (a pattern with no care core), if any, is 0.
struct CareIndex {
  std::vector<std::uint32_t> set_of;       ///< Set id per pattern.
  std::vector<std::vector<int>> sets;      ///< Sorted cores per set id.
  std::vector<std::int64_t> multiplicity;  ///< Patterns per set id.
  std::vector<bool> bus;  ///< Per set id: some pattern drives a bus line.
};

/// Interns each pattern's care-core set, held as a bitmask over the cores,
/// in one pass: a dense terminal -> core table maps assignments, an
/// open-addressing table maps masks to first-seen ids, and a final sort
/// renumbers the distinct sets lexicographically. Validates every id in
/// input order; `bus_width` bounds the bus lines.
CareIndex index_care_sets(std::span<const PatternView> patterns,
                          const TerminalSpace& terminals, int bus_width) {
  SITAM_TRACE_SPAN_ARG("sitest.index",
                       static_cast<std::int64_t>(patterns.size()));
  SITAM_CHECK_MSG(patterns.size() < UINT32_MAX, "sitest: too many patterns");
  const int cores = terminals.core_count();
  std::vector<int> core_of(static_cast<std::size_t>(terminals.total()));
  for (int core = 0; core < cores; ++core) {
    const auto first =
        core_of.begin() + terminals.first_terminal(core);
    std::fill(first, first + terminals.woc(core), core);
  }

  const std::size_t words = std::max<std::size_t>(
      1, (static_cast<std::size_t>(cores) + 63) / 64);
  constexpr std::uint32_t kFree = UINT32_MAX;
  std::vector<std::uint64_t> keys;   // `words` per first-seen set
  std::vector<std::int64_t> counts;  // per first-seen set
  std::vector<bool> bus;             // per first-seen set
  std::vector<std::uint32_t> slots(64, kFree);
  const auto key = [&](std::uint32_t id) {
    return std::span<const std::uint64_t>(keys).subspan(id * words, words);
  };
  const auto slot_of = [&](std::span<const std::uint64_t> mask) {
    std::uint64_t h = 0;
    for (const std::uint64_t w : mask) h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 32)) * 0xd6e8feb86659fd93ULL;
    std::size_t s = (h ^ (h >> 32)) & (slots.size() - 1);
    while (slots[s] != kFree && !std::ranges::equal(key(slots[s]), mask)) {
      s = (s + 1) & (slots.size() - 1);
    }
    return s;
  };

  CareIndex index;
  index.set_of.resize(patterns.size());
  std::vector<std::uint64_t> mask(words);
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    const PatternView& p = patterns[i];
    std::fill(mask.begin(), mask.end(), 0);
    for (const auto& [terminal, value] : p.assignments()) {
      (void)value;
      if (terminal < 0 || terminal >= terminals.total()) {
        throw_terminal_out_of_range(terminal);
      }
      const auto c = static_cast<std::size_t>(
          core_of[static_cast<std::size_t>(terminal)]);
      mask[c / 64] |= std::uint64_t{1} << (c % 64);
    }
    for (const BusBit& bit : p.bus_bits()) {
      if (bit.line < 0 || bit.line >= bus_width) {
        throw_bus_out_of_range(bit.line);
      }
      if (bit.driver_core < 0 || bit.driver_core >= cores) {
        throw std::out_of_range("sitest: bus driver core " +
                                std::to_string(bit.driver_core) +
                                " outside the SOC");
      }
      const auto c = static_cast<std::size_t>(bit.driver_core);
      mask[c / 64] |= std::uint64_t{1} << (c % 64);
    }
    std::size_t s = slot_of(mask);
    if (slots[s] == kFree) {
      slots[s] = static_cast<std::uint32_t>(counts.size());
      keys.insert(keys.end(), mask.begin(), mask.end());
      counts.push_back(0);
      bus.push_back(false);
      if (2 * counts.size() > slots.size()) {  // keep the load <= 1/2
        slots.assign(2 * slots.size(), kFree);
        for (std::uint32_t id = 0; id < counts.size(); ++id) {
          slots[slot_of(key(id))] = id;
        }
        s = slot_of(mask);
      }
    }
    const std::uint32_t id = slots[s];
    index.set_of[i] = id;
    ++counts[id];
    if (!p.bus_bits().empty()) bus[id] = true;
  }

  // Renumber lexicographically by sorted core list.
  std::vector<std::vector<int>> lists(counts.size());
  for (std::uint32_t id = 0; id < counts.size(); ++id) {
    const auto k = key(id);
    for (std::size_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = k[w]; bits != 0; bits &= bits - 1) {
        lists[id].push_back(static_cast<int>(w * 64) +
                            std::countr_zero(bits));
      }
    }
  }
  std::vector<std::uint32_t> order(counts.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(),
            [&lists](std::uint32_t a, std::uint32_t b) {
              return lists[a] < lists[b];
            });
  std::vector<std::uint32_t> rank(counts.size());
  for (std::uint32_t r = 0; r < order.size(); ++r) {
    rank[order[r]] = r;
    index.sets.push_back(std::move(lists[order[r]]));
    index.multiplicity.push_back(counts[order[r]]);
    index.bus.push_back(bus[order[r]]);
  }
  for (std::uint32_t& id : index.set_of) id = rank[id];
  return index;
}

/// The §3 hypergraph of an index: its non-empty sets, in set-id order, are
/// already the sorted, merged edges normalize() would produce.
Hypergraph core_hypergraph(const CareIndex& index,
                           const TerminalSpace& terminals) {
  Hypergraph hg;
  hg.vertex_weights.reserve(
      static_cast<std::size_t>(terminals.core_count()));
  for (int core = 0; core < terminals.core_count(); ++core) {
    hg.vertex_weights.push_back(terminals.woc(core));
  }
  for (std::size_t k = 0; k < index.sets.size(); ++k) {
    if (index.sets[k].empty()) continue;
    hg.edges.push_back(Hyperedge{index.sets[k], index.multiplicity[k]});
  }
  return hg;
}

/// One vertical compaction: the members of one group of one grouping.
struct CompactionJob {
  std::size_t set = 0;    ///< Index into the result (grouping).
  std::size_t group = 0;  ///< Index into that test set's groups.
  std::vector<std::uint32_t> members;
};

/// The all-cores group holding every pattern (i = 1). Its compaction is
/// the pass's one count over every pattern, started before the partitions.
void add_single_group(const CareIndex& index, int cores, SiTestSet& set) {
  SITAM_CHECK(set.groups.empty());
  set.parts = 1;
  if (index.set_of.empty()) return;
  SiTestGroup group;
  group.label = "g1";
  group.cores.resize(static_cast<std::size_t>(cores));
  std::iota(group.cores.begin(), group.cores.end(), 0);
  group.raw_patterns = static_cast<std::int64_t>(index.set_of.size());
  group.uses_bus =
      std::find(index.bus.begin(), index.bus.end(), true) != index.bus.end();
  set.groups.push_back(std::move(group));
}

/// The groups of a partition into `partition.parts` (patterns still 0),
/// plus one job per group. A care set goes to part k if all its cores are
/// in part k, else (and the empty set always) to the remainder, so the
/// buckets are decided once per distinct set.
void add_grouping(const CareIndex& index, const Partition& partition,
                  std::size_t set_index, SiTestSet& set,
                  std::vector<CompactionJob>& jobs) {
  const auto cores = static_cast<int>(partition.part_of.size());
  SITAM_CHECK(partition.parts >= 2 && set.groups.empty());
  set.parts = partition.parts;
  // Part ids lie below min(parts, cores): a huge i costs no more than
  // i = cores.
  const auto remainder =
      static_cast<std::size_t>(std::min(partition.parts, cores));
  std::vector<std::size_t> home(index.sets.size(), remainder);
  std::vector<std::int64_t> raw(remainder + 1, 0);
  std::vector<bool> bus(remainder + 1, false);
  for (std::size_t k = 0; k < index.sets.size(); ++k) {
    const std::vector<int>& care = index.sets[k];
    if (!care.empty()) {
      const int part = partition.part_of[static_cast<std::size_t>(care[0])];
      const bool local = std::all_of(care.begin(), care.end(), [&](int c) {
        return partition.part_of[static_cast<std::size_t>(c)] == part;
      });
      if (local) home[k] = static_cast<std::size_t>(part);
    }
    raw[home[k]] += index.multiplicity[k];
    if (index.bus[k]) bus[home[k]] = true;
  }
  std::vector<std::vector<std::uint32_t>> buckets(remainder + 1);
  for (std::size_t b = 0; b <= remainder; ++b) {
    buckets[b].reserve(static_cast<std::size_t>(raw[b]));
  }
  for (std::uint32_t i = 0; i < index.set_of.size(); ++i) {
    buckets[home[index.set_of[i]]].push_back(i);
  }

  for (std::size_t b = 0; b <= remainder; ++b) {
    if (buckets[b].empty()) continue;
    SiTestGroup group;
    if (b == remainder) {
      group.label = "rem";
      group.cores.resize(static_cast<std::size_t>(cores));
      // Cross-group patterns load every boundary.
      std::iota(group.cores.begin(), group.cores.end(), 0);
      group.is_remainder = true;
    } else {
      group.label = 'g' + std::to_string(b + 1);
      for (int core = 0; core < cores; ++core) {
        if (partition.part_of[static_cast<std::size_t>(core)] ==
            static_cast<int>(b)) {
          group.cores.push_back(core);
        }
      }
    }
    group.raw_patterns = raw[b];
    group.uses_bus = bus[b];
    jobs.push_back(
        CompactionJob{set_index, set.groups.size(), std::move(buckets[b])});
    set.groups.push_back(std::move(group));
  }
}

/// Checks a pass's groupings and thread counts; returns its most jobs:
/// one per part holding a core, plus the remainder (one at i = 1).
std::size_t check_pass(std::span<const int> groupings, int cores,
                       const GroupingConfig& config) {
  std::size_t max_jobs = 0;
  for (const int parts : groupings) {
    if (parts < 1) {
      throw std::invalid_argument("build_si_test_sets: parts must be >= 1");
    }
    max_jobs +=
        parts == 1 ? 1 : static_cast<std::size_t>(std::min(parts, cores)) + 1;
  }
  if (config.compaction.threads < 1) {
    throw std::invalid_argument("build_si_test_sets: threads must be >= 1");
  }
  return max_jobs;
}

/// The jobs a pass has started. Each borrows the pass's state and the
/// executor may outlive the pass, so an unwinding pass first waits for
/// every job it started.
struct StartedJobs {
  std::future<std::size_t> single;  ///< The i = 1 count, if any.
  std::vector<std::future<Partition>> partitions;
  std::vector<std::future<std::size_t>> counts;

  StartedJobs() = default;
  StartedJobs(const StartedJobs&) = delete;
  StartedJobs& operator=(const StartedJobs&) = delete;
  ~StartedJobs() {
    if (single.valid()) single.wait();
    for (const auto& p : partitions) {
      if (p.valid()) p.wait();
    }
    for (const auto& c : counts) {
      if (c.valid()) c.wait();
    }
  }
};

/// The rest of a pass once its raw set is complete and indexed, with the
/// i = 1 count already started in `single` (valid iff some grouping is 1;
/// taken over and waited for here, like every job this starts): partitions
/// every grouping i >= 2 on `executor` beside it, buckets the patterns and
/// runs those groups' compactions longest first. Results land by job
/// index, so neither the order nor the thread count changes them.
std::vector<SiTestSet> finish_pass(std::span<const PatternView> patterns,
                                   const CareIndex& index,
                                   const TerminalSpace& terminals,
                                   std::span<const int> groupings,
                                   const GroupingConfig& config,
                                   std::size_t max_jobs, Executor& executor,
                                   const CancelToken* cancel,
                                   std::future<std::size_t>& single) {
  SITAM_CHECK(single.valid() ==
              (std::find(groupings.begin(), groupings.end(), 1) !=
               groupings.end()));
  const Hypergraph hg = core_hypergraph(index, terminals);
  std::vector<SiTestSet> sets(groupings.size());
  // Reserved so that no job moves while a worker reads its members.
  std::vector<CompactionJob> jobs;
  jobs.reserve(max_jobs);
  const auto compact = [&](std::span<const std::uint32_t> members) {
    check_cancel(cancel);
    SITAM_TRACE_SPAN_ARG("sitest.compact",
                         static_cast<std::int64_t>(members.size()));
    return compact_greedy_count(patterns, members, terminals.total(),
                                config.bus_width);
  };
  StartedJobs started;
  started.single = std::move(single);

  started.partitions.resize(groupings.size());
  for (std::size_t g = 0; g < groupings.size(); ++g) {
    if (groupings[g] == 1) {
      add_single_group(index, terminals.core_count(), sets[g]);
      continue;
    }
    started.partitions[g] = executor.submit([&, parts = groupings[g]] {
      check_cancel(cancel);
      SITAM_TRACE_SPAN_ARG("sitest.partition", parts);
      return partition_hypergraph(hg, parts, config.partition);
    });
  }
  for (std::size_t g = 0; g < groupings.size(); ++g) {
    if (groupings[g] == 1) continue;
    add_grouping(index, started.partitions[g].get(), g, sets[g], jobs);
  }
  // Longest first, so the biggest compactions do not wait behind small
  // ones.
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&jobs](std::size_t a, std::size_t b) {
                     return jobs[a].members.size() > jobs[b].members.size();
                   });
  started.counts.resize(jobs.size());
  for (const std::size_t j : order) {
    started.counts[j] = executor.submit(
        [&compact, members = std::span<const std::uint32_t>(
                       jobs[j].members)] { return compact(members); });
  }

  if (started.single.valid()) {
    const auto count = static_cast<std::int64_t>(started.single.get());
    for (std::size_t g = 0; g < groupings.size(); ++g) {
      if (groupings[g] == 1 && !sets[g].groups.empty()) {
        sets[g].groups.front().patterns = count;
      }
    }
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    sets[jobs[j].set].groups[jobs[j].group].patterns =
        static_cast<std::int64_t>(started.counts[j].get());
  }
  return sets;
}

}  // namespace

Hypergraph build_core_hypergraph(std::span<const SiPattern> patterns,
                                 const TerminalSpace& terminals) {
  return core_hypergraph(
      index_care_sets(pattern_views(patterns), terminals,
                      std::numeric_limits<int>::max()),
      terminals);
}

std::vector<SiTestSet> build_si_test_sets(std::span<const SiPattern> patterns,
                                          const TerminalSpace& terminals,
                                          std::span<const int> groupings,
                                          const GroupingConfig& config,
                                          int threads,
                                          const CancelToken* cancel) {
  const std::size_t max_jobs =
      check_pass(groupings, terminals.core_count(), config);
  if (threads < 1) {
    throw std::invalid_argument("build_si_test_sets: threads must be >= 1");
  }
  const std::vector<PatternView> views = pattern_views(patterns);
  const CareIndex index =
      index_care_sets(views, terminals, config.bus_width);
  Executor executor(ThreadPool::workers_for(threads, max_jobs));
  StartedJobs started;
  if (std::find(groupings.begin(), groupings.end(), 1) != groupings.end()) {
    // i = 1 needs no partition, and its job holds every pattern: it starts
    // first, while the other groupings are partitioned beside it.
    started.single = executor.submit([&] {
      check_cancel(cancel);
      SITAM_TRACE_SPAN_ARG("sitest.compact",
                           static_cast<std::int64_t>(views.size()));
      std::vector<std::uint32_t> members(views.size());
      std::iota(members.begin(), members.end(), std::uint32_t{0});
      return compact_greedy_count(views, members, terminals.total(),
                                  config.bus_width);
    });
  }
  return finish_pass(views, index, terminals, groupings, config, max_jobs,
                     executor, cancel, started.single);
}

std::vector<SiTestSet> build_si_test_sets(
    RawPatternStore& store, const std::function<void()>& draw,
    const TerminalSpace& terminals, std::span<const int> groupings,
    const GroupingConfig& config, Executor& executor,
    const CancelToken* cancel) {
  const std::size_t max_jobs =
      check_pass(groupings, terminals.core_count(), config);
  StartedJobs started;
  const bool single =
      std::find(groupings.begin(), groupings.end(), 1) != groupings.end();
  // The i = 1 count reads the chunks in store order as `draw` publishes
  // them; its span's arg is set once the store is complete.
  const auto count_all = [&store, &terminals, &config, cancel] {
    check_cancel(cancel);
    obs::ScopedSpan span("sitest.compact");
    const std::size_t count = compact_greedy_count(
        store, terminals.total(), config.bus_width, cancel);
    span.set_arg(static_cast<std::int64_t>(store.size()));
    return count;
  };
  // On a pool it starts before the first chunk is drawn; on the caller it
  // runs once the store is closed.
  if (single && executor.size() > 1) {
    started.single = executor.submit(count_all);
  }
  try {
    draw();
  } catch (...) {
    store.close();  // lets a streaming count finish before `started` waits
    throw;
  }
  store.close();
  check_cancel(cancel);
  if (single && !started.single.valid()) {
    started.single = executor.submit(count_all);
  }
  const std::vector<PatternView> views = store.views();
  const CareIndex index =
      index_care_sets(views, terminals, config.bus_width);
  return finish_pass(views, index, terminals, groupings, config, max_jobs,
                     executor, cancel, started.single);
}

SiTestSet build_si_test_set(std::span<const SiPattern> patterns,
                            const TerminalSpace& terminals, int parts,
                            const GroupingConfig& config) {
  if (parts < 1) {
    throw std::invalid_argument("build_si_test_set: parts must be >= 1");
  }
  const int groupings[] = {parts};
  return std::move(
      build_si_test_sets(patterns, terminals, groupings, config, 1).front());
}

}  // namespace sitam
