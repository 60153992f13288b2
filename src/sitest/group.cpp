#include "sitest/group.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
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
};

/// Interns each pattern's care-core set, held as a bitmask over the cores,
/// one pattern at a time: a dense terminal -> core table maps assignments
/// and an open-addressing table maps masks to first-seen ids. finish()
/// renumbers the distinct sets lexicographically. add() validates every id
/// of its pattern (in PatternRows::add's pass when it also encodes the
/// rows); `bus_width` bounds the bus lines.
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

  /// Interns the care set of `p`, the next pattern, and with `rows`
  /// encodes its kernel rows there in the same pass. Throws
  /// std::out_of_range for a terminal, bus line or bus driver outside the
  /// declared space (terminals first), adding nothing to either.
  void add(const PatternView& p, PatternRows* rows) {
    SITAM_CHECK_MSG(set_of_.size() < UINT32_MAX - 1,
                    "sitest: too many patterns");
    std::fill(mask_.begin(), mask_.end(), 0);
    const auto on_care = [this](int terminal) {
      set_core(core_of_[static_cast<std::size_t>(terminal)]);
    };
    const auto on_bus = [this](const BusBit& bit) {
      if (bit.driver_core < 0 || bit.driver_core >= cores_) {
        throw std::out_of_range("sitest: bus driver core " +
                                std::to_string(bit.driver_core) +
                                " outside the SOC");
      }
      set_core(bit.driver_core);
    };
    if (rows != nullptr) {
      rows->add(p, on_care, on_bus);
    } else {
      for (const auto& [terminal, value] : p.assignments()) {
        (void)value;
        if (terminal < 0 || terminal >= terminals_) {
          throw_terminal_out_of_range(terminal);
        }
        on_care(terminal);
      }
      for (const BusBit& bit : p.bus_bits()) {
        if (bit.line < 0 || bit.line >= bus_width_) {
          throw_bus_out_of_range(bit.line);
        }
        on_bus(bit);
      }
    }
    std::size_t s = slot_of(mask_);
    if (slots_[s] == kFree) {
      slots_[s] = static_cast<std::uint32_t>(counts_.size());
      keys_.insert(keys_.end(), mask_.begin(), mask_.end());
      counts_.push_back(0);
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
  std::vector<std::uint32_t> slots_;     // mask hash -> first-seen id
  std::vector<std::uint64_t> mask_;      // add() scratch
  std::vector<std::uint32_t> set_of_;    // first-seen id per pattern
};

/// The care-set index of `patterns`, validating every id in input order
/// (terminal ids only against `terminals`: any bus line is accepted).
CareIndex index_care_sets(std::span<const PatternView> patterns,
                          const TerminalSpace& terminals) {
  CareInterner interner(terminals, std::numeric_limits<int>::max());
  for (const PatternView& p : patterns) interner.add(p, nullptr);
  return std::move(interner).finish();
}

/// The care-set index of every pattern of `store`, in store order, and
/// the kernel rows of each pattern, encoded into `rows` (chunked as the
/// store is). Reads each chunk as soon as it is published, so it can run
/// beside the writer: row chunk k is published once store chunk k is read,
/// and store chunk k is then freed. Returns once the store is closed;
/// `rows` is closed on return and on every exception, so its readers
/// finish. `cancel` is checked before each chunk.
CareIndex index_care_sets(RawPatternStore& store,
                          const TerminalSpace& terminals, int bus_width,
                          PatternRows& rows, const CancelToken* cancel) {
  obs::ScopedSpan span("sitest.index");
  try {
    CareInterner interner(terminals, bus_width);
    for (std::size_t k = 0;; ++k) {
      const RawPatternStore::Chunk* chunk = store.wait_chunk(k);
      if (chunk == nullptr) break;
      check_cancel(cancel);
      for (const PatternView& p : *chunk) interner.add(p, &rows);
      // Row chunk k is published (a full chunk by its last add(), the
      // last one by close()); pair chunk k is read and goes.
      store.release(k);
    }
    rows.close();
    SITAM_COUNTER("pattern.rows.words", rows.words());
    span.set_arg(static_cast<std::int64_t>(store.size()));
    return std::move(interner).finish();
  } catch (...) {
    rows.close();
    throw;
  }
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
  std::size_t group = 0;  ///< Index into the grouping's groups.
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
  set.groups.push_back(std::move(group));
}

/// The groups of a partition into `partition.parts` (patterns still 0),
/// plus one job per group. A care set goes to part k if all its cores are
/// in part k, else (and the empty set always) to the remainder, so the
/// buckets are decided once per distinct set.
void add_grouping(const CareIndex& index, const Partition& partition,
                  SiTestSet& set, std::vector<CompactionJob>& jobs) {
  const auto cores = static_cast<int>(partition.part_of.size());
  SITAM_CHECK(partition.parts >= 2 && set.groups.empty());
  set.parts = partition.parts;
  // Part ids lie below min(parts, cores): a huge i costs no more than
  // i = cores.
  const auto remainder =
      static_cast<std::size_t>(std::min(partition.parts, cores));
  std::vector<std::size_t> home(index.sets.size(), remainder);
  std::vector<std::int64_t> raw(remainder + 1, 0);
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
    jobs.push_back(CompactionJob{set.groups.size(), std::move(buckets[b])});
    set.groups.push_back(std::move(group));
  }
}

/// Checks a pass's groupings and compaction thread count.
void check_pass(std::span<const int> groupings, const GroupingConfig& config) {
  for (const int parts : groupings) {
    if (parts < 1) {
      throw std::invalid_argument("build_si_test_sets: parts must be >= 1");
    }
  }
  if (config.compaction.threads < 1) {
    throw std::invalid_argument("build_si_test_sets: threads must be >= 1");
  }
}

/// Ready once the object holding it is destroyed: declared first in a
/// class, after every other member is freed.
class FreedSignal {
 public:
  FreedSignal() = default;
  FreedSignal(const FreedSignal&) = delete;
  FreedSignal& operator=(const FreedSignal&) = delete;
  ~FreedSignal() { freed_.set_value(); }
  [[nodiscard]] std::future<void> future() { return freed_.get_future(); }

 private:
  std::promise<void> freed_;
};

/// One pass over a raw set as nodes of a job graph. Every job of the pass
/// shares ownership of it, so its rows and index are freed, and `freed`
/// is ready, once the last job is gone. A grouping's set is handed to
/// `on_set` once each of its pieces is done: its set-up (the caller's
/// group for i = 1, its partition's hand-over for i >= 2) and every count.
struct Pass {
  Pass(const TerminalSpace& terminals, std::span<const int> groupings_in,
       const GroupingConfig& config, TaskGroup& group_in,
       const CancelToken* cancel_in, SetDone on_set_in,
       std::size_t chunk_patterns)
      : rows(terminals.total(), config.bus_width, chunk_patterns),
        groupings(groupings_in.begin(), groupings_in.end()),
        partition_config(config.partition),
        cores(terminals.core_count()),
        group(group_in),
        cancel(cancel_in),
        on_set(std::move(on_set_in)),
        sets(groupings.size()),
        jobs(groupings.size()),
        left(groupings.size(), 1) {
    for (std::size_t g = 0; g < groupings.size(); ++g) {
      // The i = 1 count is one more piece of each i = 1 grouping.
      if (groupings[g] == 1) ++left[g];
    }
  }

  FreedSignal freed;
  PatternRows rows;
  CareIndex index;
  Hypergraph hg;
  std::vector<int> groupings;
  PartitionConfig partition_config;
  int cores = 0;
  TaskGroup& group;
  const CancelToken* cancel = nullptr;
  SetDone on_set;
  std::vector<SiTestSet> sets;
  /// Per grouping, written by its set-up: the set's group of each job.
  std::vector<std::vector<CompactionJob>> jobs;
  std::mutex mutex;
  std::vector<std::size_t> left;  // guarded_by(mutex): pieces per grouping
  std::size_t single = 0;         // guarded_by(mutex): the i = 1 count

  [[nodiscard]] bool has_single() const {
    return std::find(groupings.begin(), groupings.end(), 1) !=
           groupings.end();
  }

  /// Starts the i = 1 count over every row as the rows are written.
  static void start_single(const std::shared_ptr<Pass>& pass) {
    start_greedy_count(
        pass->rows, pass->group.executor(), pass->cancel, "sitest.compact",
        pass->landing([pass](std::size_t count) {
          std::vector<std::size_t> done;
          {
            const std::lock_guard<std::mutex> lock(pass->mutex);
            pass->single = count;
            for (std::size_t g = 0; g < pass->groupings.size(); ++g) {
              if (pass->groupings[g] == 1 && --pass->left[g] == 0) {
                done.push_back(g);
              }
            }
          }
          for (const std::size_t g : done) pass->hand_over(g);
        }));
  }

  /// Once the index is closed: the i = 1 groups on this thread, and one
  /// partition tree for every grouping i >= 2, which hands each grouping's
  /// partition over as its walk ends.
  static void start_groupings(const std::shared_ptr<Pass>& pass,
                              const TerminalSpace& terminals) {
    pass->hg = core_hypergraph(pass->index, terminals);
    std::vector<int> parts;
    std::vector<std::size_t> grouping_of;  // per partition
    for (std::size_t g = 0; g < pass->groupings.size(); ++g) {
      if (pass->groupings[g] == 1) {
        add_single_group(pass->index, pass->cores, pass->sets[g]);
        pass->piece_done(g);
        continue;
      }
      parts.push_back(pass->groupings[g]);
      grouping_of.push_back(g);
    }
    if (parts.empty()) return;
    start_partitions(pass->hg, parts, pass->partition_config, pass->group,
                     [pass, grouping_of = std::move(grouping_of)](
                         std::size_t i, Partition partition) {
                       partitioned(pass, grouping_of[i], partition);
                     });
  }

  /// Grouping g's partition has ended: buckets its patterns and starts its
  /// counts, longest first, so the first stage tasks of the biggest
  /// compactions are queued ahead of the small ones.
  static void partitioned(const std::shared_ptr<Pass>& pass, std::size_t g,
                          const Partition& partition) {
    check_cancel(pass->cancel);
    std::vector<CompactionJob>& jobs = pass->jobs[g];
    add_grouping(pass->index, partition, pass->sets[g], jobs);
    std::vector<std::size_t> order(jobs.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return jobs[a].members.size() > jobs[b].members.size();
                     });
    {
      const std::lock_guard<std::mutex> lock(pass->mutex);
      pass->left[g] += jobs.size();
    }
    for (const std::size_t j : order) {
      const std::size_t at = jobs[j].group;
      start_greedy_count(
          pass->rows, jobs[j].members, pass->group.executor(), pass->cancel,
          "sitest.compact", pass->landing([pass, g, at](std::size_t count) {
            bool last = false;
            {
              const std::lock_guard<std::mutex> lock(pass->mutex);
              pass->sets[g].groups[at].patterns =
                  static_cast<std::int64_t>(count);
              last = --pass->left[g] == 0;
            }
            if (last) pass->hand_over(g);
          }));
      // The count holds its own copy of the members.
      jobs[j].members = {};
    }
    pass->piece_done(g);
  }

  /// The CountDone of one count, held in the group until it lands:
  /// `landed` gets its count, and an error (the count's or landed's)
  /// goes to the group.
  template <typename Landed>
  [[nodiscard]] CountDone landing(Landed landed) {
    group.hold();
    return [held = &group, landed = std::move(landed)](
               std::size_t count, std::exception_ptr error) mutable {
      if (!error) {
        try {
          landed(count);
        } catch (...) {
          error = std::current_exception();
        }
      }
      held->release(std::move(error));
    };
  }

  void piece_done(std::size_t g) {
    bool last = false;
    {
      const std::lock_guard<std::mutex> lock(mutex);
      last = --left[g] == 0;
    }
    if (last) hand_over(g);
  }

  /// Grouping g is complete: its set goes to on_set.
  void hand_over(std::size_t g) {
    if (groupings[g] == 1 && !sets[g].groups.empty()) {
      const std::lock_guard<std::mutex> lock(mutex);
      sets[g].groups.front().patterns = static_cast<std::int64_t>(single);
    }
    on_set(g, std::move(sets[g]));
  }
};

}  // namespace

std::future<void> start_si_test_sets(
    RawPatternStore& store, const std::function<void()>& draw,
    const TerminalSpace& terminals, std::span<const int> groupings,
    const GroupingConfig& config, TaskGroup& group,
    const CancelToken* cancel, SetDone on_set) {
  check_pass(groupings, config);
  const auto pass =
      std::make_shared<Pass>(terminals, groupings, config, group, cancel,
                             std::move(on_set), store.chunk_patterns());
  std::future<void> freed = pass->freed.future();
  // The index reads the store's chunks in order as `draw` publishes them,
  // encodes their rows and frees them; the i = 1 count reads the rows as
  // the index publishes them. On a pool the draw runs on a worker and the
  // index on this thread, so the rows are allocated where the next pass
  // allocates its own. On the caller each runs in turn. The draw's group
  // is waited for on a throw too: the draw writes `store`.
  const bool streamed = group.executor().size() > 1;
  {
    TaskGroup drawing(group.executor());
    drawing.run(JobPriority::kNormal, [&store, &draw] {
      try {
        draw();
      } catch (...) {
        store.close();  // lets the index finish
        throw;
      }
      store.close();
    });
    if (streamed && pass->has_single()) Pass::start_single(pass);
    pass->index = index_care_sets(store, terminals, config.bus_width,
                                  pass->rows, cancel);
    drawing.wait();
  }
  if (!streamed && pass->has_single()) Pass::start_single(pass);
  check_cancel(cancel);
  Pass::start_groupings(pass, terminals);
  return freed;
}

Hypergraph build_core_hypergraph(std::span<const SiPattern> patterns,
                                 const TerminalSpace& terminals) {
  return core_hypergraph(
      index_care_sets(pattern_views(patterns), terminals),
      terminals);
}

// sitam-lint: allow(SL005) — start_si_test_sets validates.
std::vector<SiTestSet> build_si_test_sets(std::span<const SiPattern> patterns,
                                          const TerminalSpace& terminals,
                                          std::span<const int> groupings,
                                          const GroupingConfig& config,
                                          Executor& executor,
                                          const CancelToken* cancel) {
  std::vector<SiTestSet> sets(groupings.size());
  RawPatternStore store;
  TaskGroup group(executor);
  (void)start_si_test_sets(
      store,
      [&store, patterns] {
        for (const SiPattern& p : patterns) {
          for (const auto& [terminal, value] : p.assignments()) {
            store.add_care(terminal, value);
          }
          for (const BusBit& bit : p.bus_bits()) store.add_bus(bit);
          store.end_pattern();
        }
      },
      terminals, groupings, config, group, cancel,
      [&sets](std::size_t g, SiTestSet set) { sets[g] = std::move(set); });
  group.wait();
  return sets;
}

SiTestSet build_si_test_set(std::span<const SiPattern> patterns,
                            const TerminalSpace& terminals, int parts,
                            const GroupingConfig& config) {
  if (parts < 1) {
    throw std::invalid_argument("build_si_test_set: parts must be >= 1");
  }
  const int groupings[] = {parts};
  Executor caller(1);
  return std::move(
      build_si_test_sets(patterns, terminals, groupings, config, caller)
          .front());
}

}  // namespace sitam
