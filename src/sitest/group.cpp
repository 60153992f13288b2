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
/// one pattern at a time: a dense terminal -> core table maps assignments
/// and an open-addressing table maps masks to first-seen ids. finish()
/// renumbers the distinct sets lexicographically. add() validates every id
/// of its pattern; `bus_width` bounds the bus lines.
class CareInterner {
 public:
  CareInterner(const TerminalSpace& terminals, int bus_width)
      : terminals_(terminals.total()),
        cores_(terminals.core_count()),
        bus_width_(bus_width),
        words_(std::max<std::size_t>(
            1, (static_cast<std::size_t>(cores_) + 63) / 64)),
        core_of_(static_cast<std::size_t>(terminals_)),
        slots_(64, kFree),
        mask_(words_) {
    for (int core = 0; core < cores_; ++core) {
      const auto first = core_of_.begin() + terminals.first_terminal(core);
      std::fill(first, first + terminals.woc(core), core);
    }
  }

  /// Interns the care set of `p`, the next pattern. Throws
  /// std::out_of_range for a terminal, bus line or bus driver outside the
  /// declared space (terminals first).
  void add(const PatternView& p) {
    SITAM_CHECK_MSG(set_of_.size() < UINT32_MAX - 1,
                    "sitest: too many patterns");
    std::fill(mask_.begin(), mask_.end(), 0);
    for (const auto& [terminal, value] : p.assignments()) {
      (void)value;
      if (terminal < 0 || terminal >= terminals_) {
        throw_terminal_out_of_range(terminal);
      }
      set_core(core_of_[static_cast<std::size_t>(terminal)]);
    }
    for (const BusBit& bit : p.bus_bits()) {
      if (bit.line < 0 || bit.line >= bus_width_) {
        throw_bus_out_of_range(bit.line);
      }
      if (bit.driver_core < 0 || bit.driver_core >= cores_) {
        throw std::out_of_range("sitest: bus driver core " +
                                std::to_string(bit.driver_core) +
                                " outside the SOC");
      }
      set_core(bit.driver_core);
    }
    std::size_t s = slot_of(mask_);
    if (slots_[s] == kFree) {
      slots_[s] = static_cast<std::uint32_t>(counts_.size());
      keys_.insert(keys_.end(), mask_.begin(), mask_.end());
      counts_.push_back(0);
      bus_.push_back(false);
      if (2 * counts_.size() > slots_.size()) {  // keep the load <= 1/2
        slots_.assign(2 * slots_.size(), kFree);
        for (std::uint32_t id = 0; id < counts_.size(); ++id) {
          slots_[slot_of(key(id))] = id;
        }
        s = slot_of(mask_);
      }
    }
    const std::uint32_t id = slots_[s];
    set_of_.push_back(id);
    ++counts_[id];
    if (!p.bus_bits().empty()) bus_[id] = true;
  }

  /// The index of every pattern added, its sets renumbered
  /// lexicographically by sorted core list.
  [[nodiscard]] CareIndex finish() && {
    std::vector<std::vector<int>> lists(counts_.size());
    for (std::uint32_t id = 0; id < counts_.size(); ++id) {
      const auto k = key(id);
      for (std::size_t w = 0; w < words_; ++w) {
        for (std::uint64_t bits = k[w]; bits != 0; bits &= bits - 1) {
          lists[id].push_back(static_cast<int>(w * 64) +
                              std::countr_zero(bits));
        }
      }
    }
    std::vector<std::uint32_t> order(counts_.size());
    std::iota(order.begin(), order.end(), std::uint32_t{0});
    std::sort(order.begin(), order.end(),
              [&lists](std::uint32_t a, std::uint32_t b) {
                return lists[a] < lists[b];
              });
    CareIndex index;
    std::vector<std::uint32_t> rank(counts_.size());
    for (std::uint32_t r = 0; r < order.size(); ++r) {
      rank[order[r]] = r;
      index.sets.push_back(std::move(lists[order[r]]));
      index.multiplicity.push_back(counts_[order[r]]);
      index.bus.push_back(bus_[order[r]]);
    }
    index.set_of = std::move(set_of_);
    for (std::uint32_t& id : index.set_of) id = rank[id];
    return index;
  }

 private:
  static constexpr std::uint32_t kFree = UINT32_MAX;

  void set_core(int core) {
    const auto c = static_cast<std::size_t>(core);
    mask_[c / 64] |= std::uint64_t{1} << (c % 64);
  }
  [[nodiscard]] std::span<const std::uint64_t> key(std::uint32_t id) const {
    return std::span<const std::uint64_t>(keys_).subspan(id * words_, words_);
  }
  [[nodiscard]] std::size_t slot_of(
      std::span<const std::uint64_t> mask) const {
    std::uint64_t h = 0;
    for (const std::uint64_t w : mask) h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
    h = (h ^ (h >> 32)) * 0xd6e8feb86659fd93ULL;
    std::size_t s = (h ^ (h >> 32)) & (slots_.size() - 1);
    while (slots_[s] != kFree && !std::ranges::equal(key(slots_[s]), mask)) {
      s = (s + 1) & (slots_.size() - 1);
    }
    return s;
  }

  int terminals_ = 0;
  int cores_ = 0;
  int bus_width_ = 0;
  std::size_t words_ = 1;
  std::vector<int> core_of_;             // terminal -> core
  std::vector<std::uint64_t> keys_;      // words_ per first-seen set
  std::vector<std::int64_t> counts_;     // per first-seen set
  std::vector<bool> bus_;                // per first-seen set
  std::vector<std::uint32_t> slots_;     // mask hash -> first-seen id
  std::vector<std::uint64_t> mask_;      // add() scratch
  std::vector<std::uint32_t> set_of_;    // first-seen id per pattern
};

/// The care-set index of `patterns`, validating every id in input order.
CareIndex index_care_sets(std::span<const PatternView> patterns,
                          const TerminalSpace& terminals, int bus_width) {
  SITAM_TRACE_SPAN_ARG("sitest.index",
                       static_cast<std::int64_t>(patterns.size()));
  CareInterner interner(terminals, bus_width);
  for (const PatternView& p : patterns) interner.add(p);
  return std::move(interner).finish();
}

/// The care-set index of every pattern of `store`, in store order. Reads
/// each chunk as soon as it is published, so it can run beside the
/// writer; returns once the store is closed. `cancel` is checked before
/// each chunk.
CareIndex index_care_sets(const RawPatternStore& store,
                          const TerminalSpace& terminals, int bus_width,
                          const CancelToken* cancel) {
  obs::ScopedSpan span("sitest.index");
  CareInterner interner(terminals, bus_width);
  for (std::size_t k = 0;; ++k) {
    const RawPatternStore::Chunk* chunk = store.wait_chunk(k);
    if (chunk == nullptr) break;
    check_cancel(cancel);
    for (const PatternView& p : *chunk) interner.add(p);
  }
  span.set_arg(static_cast<std::int64_t>(store.size()));
  return std::move(interner).finish();
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
  std::future<CareIndex> index;     ///< The streamed care-set index.
  std::vector<std::future<Partition>> partitions;
  std::vector<std::future<std::size_t>> counts;

  StartedJobs() = default;
  StartedJobs(const StartedJobs&) = delete;
  StartedJobs& operator=(const StartedJobs&) = delete;
  ~StartedJobs() {
    if (single.valid()) single.wait();
    if (index.valid()) index.wait();
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
  // Longest first, so the first stage tasks of the biggest compactions are
  // queued ahead of the small ones.
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&jobs](std::size_t a, std::size_t b) {
                     return jobs[a].members.size() > jobs[b].members.size();
                   });
  started.counts.resize(jobs.size());
  for (const std::size_t j : order) {
    started.counts[j] =
        start_greedy_count(patterns, jobs[j].members, terminals.total(),
                           config.bus_width, executor, cancel,
                           "sitest.compact");
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
  std::vector<std::uint32_t> all;
  StartedJobs started;
  if (std::find(groupings.begin(), groupings.end(), 1) != groupings.end()) {
    // i = 1 needs no partition, and its job holds every pattern: it starts
    // first, while the other groupings are partitioned beside it.
    all.resize(views.size());
    std::iota(all.begin(), all.end(), std::uint32_t{0});
    started.single =
        start_greedy_count(views, all, terminals.total(), config.bus_width,
                           executor, cancel, "sitest.compact");
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
  // The i = 1 count and the care-set index each read the chunks in store
  // order as `draw` publishes them; their spans' args are set once the
  // store is complete.
  const auto index_all = [&store, &terminals, &config, cancel] {
    return index_care_sets(store, terminals, config.bus_width, cancel);
  };
  const auto start_readers = [&] {
    if (single) {
      started.single =
          start_greedy_count(store, terminals.total(), config.bus_width,
                             executor, cancel, "sitest.compact");
    }
    started.index = executor.submit(index_all);
  };
  // On a pool both start before the first chunk is drawn, beside the
  // writer; on the caller they run once the store is closed.
  const bool streamed = executor.size() > 1;
  if (streamed) start_readers();
  try {
    draw();
  } catch (...) {
    store.close();  // lets the streaming readers finish before `started`
    throw;          // waits for them
  }
  store.close();
  check_cancel(cancel);
  if (!streamed) start_readers();
  const CareIndex index = started.index.get();
  const std::vector<PatternView> views = store.views();
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
