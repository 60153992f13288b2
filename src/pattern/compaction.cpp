#include "pattern/compaction.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>

#include "obs/obs.h"
#include "pattern/packed.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace sitam {

namespace {

/// Dense, epoch-stamped view of one growing compacted pattern. Checking a
/// sparse candidate against it is O(candidate care bits). This is the seed
/// implementation backing compact_greedy_reference — kept verbatim as the
/// baseline the block kernel is measured (and byte-compared) against.
class SparseAccumulator {
 public:
  SparseAccumulator(int total_terminals, int bus_width)
      : values_(static_cast<std::size_t>(total_terminals)),
        value_epoch_(static_cast<std::size_t>(total_terminals), 0),
        bus_driver_(static_cast<std::size_t>(bus_width)),
        bus_epoch_(static_cast<std::size_t>(bus_width), 0) {}

  /// Starts a fresh compacted pattern (O(1) via epoch bump).
  void reset() {
    ++epoch_;
    touched_terminals_.clear();
    touched_bus_.clear();
  }

  [[nodiscard]] bool fits(const SiPattern& p) const {
    for (const auto& [terminal, value] : p.assignments()) {
      check_terminal(terminal);
      const auto t = static_cast<std::size_t>(terminal);
      if (value_epoch_[t] == epoch_ && values_[t] != value) return false;
    }
    for (const BusBit& bit : p.bus_bits()) {
      check_bus(bit.line);
      const auto l = static_cast<std::size_t>(bit.line);
      if (bus_epoch_[l] == epoch_ && bus_driver_[l] != bit.driver_core) {
        return false;
      }
    }
    return true;
  }

  /// Precondition: fits(p).
  void absorb(const SiPattern& p) {
    for (const auto& [terminal, value] : p.assignments()) {
      const auto t = static_cast<std::size_t>(terminal);
      if (value_epoch_[t] != epoch_) {
        value_epoch_[t] = epoch_;
        values_[t] = value;
        touched_terminals_.push_back(terminal);
      }
    }
    for (const BusBit& bit : p.bus_bits()) {
      const auto l = static_cast<std::size_t>(bit.line);
      if (bus_epoch_[l] != epoch_) {
        bus_epoch_[l] = epoch_;
        bus_driver_[l] = bit.driver_core;
        touched_bus_.push_back(bit.line);
      }
    }
  }

  [[nodiscard]] SiPattern to_pattern() {
    SiPattern p;
    std::sort(touched_terminals_.begin(), touched_terminals_.end());
    for (const int terminal : touched_terminals_) {
      p.set(terminal, values_[static_cast<std::size_t>(terminal)]);
    }
    std::sort(touched_bus_.begin(), touched_bus_.end());
    for (const int line : touched_bus_) {
      p.set_bus(line, bus_driver_[static_cast<std::size_t>(line)]);
    }
    return p;
  }

 private:
  void check_terminal(int terminal) const {
    if (terminal < 0 || terminal >= static_cast<int>(values_.size())) {
      throw std::out_of_range("compaction: terminal id " +
                              std::to_string(terminal) +
                              " outside declared terminal space");
    }
  }
  void check_bus(int line) const {
    if (line < 0 || line >= static_cast<int>(bus_driver_.size())) {
      throw std::out_of_range("compaction: bus line " + std::to_string(line) +
                              " outside declared bus width");
    }
  }

  std::uint32_t epoch_ = 0;
  std::vector<SigValue> values_;
  std::vector<std::uint32_t> value_epoch_;
  std::vector<int> bus_driver_;
  std::vector<std::uint32_t> bus_epoch_;
  std::vector<int> touched_terminals_;
  std::vector<int> touched_bus_;
};

constexpr SigValue kCareValues[] = {SigValue::kStable0, SigValue::kStable1,
                                    SigValue::kRise, SigValue::kFall};

/// Index of a cared-for value in kCareValues.
[[nodiscard]] std::uint32_t care_index(SigValue v) {
  return static_cast<std::uint32_t>(v) - 1;
}

/// Orders bus bits by (line, driver).
[[nodiscard]] bool bus_bit_less(const BusBit& a, const BusBit& b) {
  return a.line != b.line ? a.line < b.line : a.driver_core < b.driver_core;
}

/// The std::out_of_range the sparse accumulator throws for the first id of
/// `p` outside [0, total_terminals) or [0, bus_width): terminals, then bus
/// lines.
void check_ids(const PatternView& p, int total_terminals, int bus_width) {
  for (const auto& [terminal, value] : p.assignments()) {
    (void)value;
    if (terminal < 0 || terminal >= total_terminals) {
      throw_terminal_out_of_range(terminal);
    }
  }
  for (const BusBit& bit : p.bus_bits()) {
    if (bit.line < 0 || bit.line >= bus_width) {
      throw_bus_out_of_range(bit.line);
    }
  }
}

/// First-fit over blocks of 64 compacted patterns ("classes"), stored
/// transposed: one 64-bit word per (row, block), bit c of block b standing
/// for class 64b + c. Each row answers one question a candidate bit asks
/// of every class at once:
///
///   4u + v — classes that care about used terminal u with a value other
///            than care value v (a candidate with v there conflicts);
///   line   — classes occupying a used bus line;
///   pair   — classes driving a line from one driver (one row per distinct
///            (line, driver) pair seen).
///
/// place() ORs a candidate's terminal rows plus `line & ~pair` per bus bit
/// into one conflict word per block; the lowest zero bit is its class.
/// Unopened classes of the last block have empty columns, so when no open
/// class fits, that lowest zero is exactly the next class to open.
/// first_fit() fills the conflict words of kStrip blocks per pass over the
/// rows, then probes the blocks left one at a time.
///
/// Terminal rows and bus rows are two arrays; row r of block b lives at
/// r * capacity + b, so a candidate's rows are contiguous across blocks and
/// a scan streams a few cache lines. A terminal or pair gets its rows the
/// first time a placed pattern uses it, so patterns can arrive one chunk at
/// a time and memory is ⌈C/64⌉ × (4·U + B + P) words (capacity doubles as
/// blocks open) whatever the declared space. Row numbers never reach the
/// output: materialize() walks ids in ascending order.
class FirstFitKernel {
 public:
  /// `total_terminals` and `bus_width` bound the ids place() accepts.
  FirstFitKernel(int total_terminals, int bus_width)
      : total_terminals_(total_terminals), bus_width_(bus_width) {}

  /// Checks `p`'s ids (as check_ids does), puts it into the first class it
  /// is compatible with (opening a new one if none is) and merges it in.
  void place(const PatternView& p);

  /// Classes opened so far.
  [[nodiscard]] std::size_t classes() const noexcept { return classes_; }
  /// Blocks tested over all place() calls.
  [[nodiscard]] std::uint64_t block_probes() const noexcept {
    return block_probes_;
  }

  /// Builds each class's pattern straight from the masks. A class cares
  /// about terminal u iff some row 4u + v holds its bit, and its value is
  /// the one row that lacks it. Walking terminals, then pairs, in ascending
  /// order (sorted once here) makes every set()/set_bus() an append.
  [[nodiscard]] std::vector<SiPattern> materialize() const;

 private:
  static constexpr std::uint32_t kNoRow = UINT32_MAX;

  struct BusRows {
    std::uint32_t line = 0;
    std::uint32_t pair = 0;
  };
  struct PairRow {
    BusBit bit;
    std::uint32_t row = 0;
  };

  [[nodiscard]] std::uint64_t* care_row(std::uint32_t r) {
    return care_masks_.data() + static_cast<std::size_t>(r) * capacity_;
  }
  [[nodiscard]] const std::uint64_t* care_row(std::uint32_t r) const {
    return care_masks_.data() + static_cast<std::size_t>(r) * capacity_;
  }
  [[nodiscard]] std::uint64_t* bus_row(std::uint32_t r) {
    return bus_masks_.data() + static_cast<std::size_t>(r) * capacity_;
  }
  [[nodiscard]] const std::uint64_t* bus_row(std::uint32_t r) const {
    return bus_masks_.data() + static_cast<std::size_t>(r) * capacity_;
  }
  /// Rank u of `terminal` (rows 4u..4u+3), given on first sight.
  [[nodiscard]] std::uint32_t rank(int terminal);
  /// The line and pair rows of `bit`, given on first sight.
  [[nodiscard]] BusRows bus_rows(const BusBit& bit);
  /// Appends one empty bus row and returns it.
  [[nodiscard]] std::uint32_t add_bus_row();
  /// Appends an empty block, doubling the capacity (and re-laying out the
  /// rows) when it is full.
  void add_block();
  /// The first class compatible with the candidate whose rows are `care`
  /// and `bus`: an open one, else classes_ (the next to open, whose column
  /// is still empty). Probes strips of kStrip blocks, then the rest one
  /// block at a time.
  [[nodiscard]] std::size_t first_fit(std::span<const std::uint32_t> care,
                                      std::span<const BusRows> bus) const;

  /// Blocks probed together by first_fit.
  static constexpr std::size_t kStrip = 4;

  int total_terminals_ = 0;
  int bus_width_ = 0;
  std::vector<std::uint32_t> rank_of_;       // terminal id -> rank or kNoRow
  std::vector<int> terminals_;               // rank -> terminal id
  std::vector<std::uint32_t> line_row_;      // line -> bus row or kNoRow
  std::vector<std::vector<PairRow>> pairs_;  // line -> its pairs' rows
  std::uint32_t bus_rows_ = 0;
  std::size_t capacity_ = 0;                 // blocks allocated per row
  std::size_t blocks_ = 0;                   // blocks in use
  std::size_t classes_ = 0;
  std::uint64_t block_probes_ = 0;
  std::vector<std::uint64_t> care_masks_;    // 4 * terminals_ x capacity_
  std::vector<std::uint64_t> bus_masks_;     // bus_rows_ x capacity_
  std::vector<std::uint32_t> care_;          // place() scratch: care rows
  std::vector<BusRows> bus_;                 // place() scratch: bus rows
};

std::uint32_t FirstFitKernel::rank(int terminal) {
  const auto t = static_cast<std::size_t>(terminal);
  if (t >= rank_of_.size()) {
    rank_of_.resize(
        std::clamp(2 * rank_of_.size(), t + 1,
                   static_cast<std::size_t>(total_terminals_)),
        kNoRow);
  }
  std::uint32_t& rank = rank_of_[t];
  if (rank == kNoRow) {
    SITAM_CHECK_MSG(4 * terminals_.size() + 4 <= UINT32_MAX,
                    "compaction: too many kernel rows");
    rank = static_cast<std::uint32_t>(terminals_.size());
    terminals_.push_back(terminal);
    care_masks_.resize(care_masks_.size() + 4 * capacity_, 0);
  }
  return rank;
}

std::uint32_t FirstFitKernel::add_bus_row() {
  SITAM_CHECK_MSG(bus_rows_ < UINT32_MAX, "compaction: too many kernel rows");
  bus_masks_.resize(bus_masks_.size() + capacity_, 0);
  return bus_rows_++;
}

FirstFitKernel::BusRows FirstFitKernel::bus_rows(const BusBit& bit) {
  const auto l = static_cast<std::size_t>(bit.line);
  if (l >= line_row_.size()) {
    line_row_.resize(l + 1, kNoRow);
    pairs_.resize(l + 1);
  }
  if (line_row_[l] == kNoRow) line_row_[l] = add_bus_row();
  std::vector<PairRow>& pairs = pairs_[l];
  auto pair = std::find_if(pairs.begin(), pairs.end(), [&](const PairRow& p) {
    return p.bit.driver_core == bit.driver_core;
  });
  if (pair == pairs.end()) {
    pairs.push_back(PairRow{bit, add_bus_row()});
    pair = pairs.end() - 1;
  }
  return BusRows{line_row_[l], pair->row};
}

void FirstFitKernel::add_block() {
  if (blocks_ == capacity_) {
    const std::size_t capacity = std::max<std::size_t>(1, 2 * capacity_);
    const auto relayout = [&](std::vector<std::uint64_t>& masks,
                              std::size_t rows) {
      std::vector<std::uint64_t> wider(rows * capacity, 0);
      for (std::size_t r = 0; r < rows; ++r) {
        std::copy_n(masks.data() + r * capacity_, blocks_,
                    wider.data() + r * capacity);
      }
      masks = std::move(wider);
    };
    relayout(care_masks_, 4 * terminals_.size());
    relayout(bus_masks_, bus_rows_);
    capacity_ = capacity;
  }
  ++blocks_;
}

void FirstFitKernel::place(const PatternView& p) {
  care_.clear();
  std::size_t transitions = 0;
  for (const auto& [terminal, value] : p.assignments()) {
    if (terminal < 0 || terminal >= total_terminals_) {
      throw_terminal_out_of_range(terminal);
    }
    care_.push_back(4 * rank(terminal) + care_index(value));
    // Transitions first: their rows reject most classes, so the scan can
    // usually stop reading a strip after them.
    if (is_transition(value)) std::swap(care_[transitions++], care_.back());
  }
  bus_.clear();
  for (const BusBit& bit : p.bus_bits()) {
    if (bit.line < 0 || bit.line >= bus_width_) {
      throw_bus_out_of_range(bit.line);
    }
    bus_.push_back(bus_rows(bit));
  }

  const std::span<const std::uint32_t> care = care_;
  const std::span<const BusRows> bus = bus_;
  const std::size_t cls = first_fit(care, bus);
  block_probes_ += std::min(cls / 64 + 1, blocks_);
  if (cls == classes_) {
    if (classes_ == blocks_ * 64) add_block();
    ++classes_;
  }

  const std::size_t block = cls / 64;
  const std::uint64_t bit = std::uint64_t{1} << (cls % 64);
  for (const std::uint32_t r : care) {
    // The class now conflicts with every other value at this terminal.
    const std::uint32_t base = r & ~3u;
    for (std::uint32_t v = base; v < base + 4; ++v) {
      if (v != r) care_row(v)[block] |= bit;
    }
  }
  for (const BusRows& rows : bus) {
    bus_row(rows.line)[block] |= bit;
    bus_row(rows.pair)[block] |= bit;
  }
}

std::size_t FirstFitKernel::first_fit(std::span<const std::uint32_t> care,
                                      std::span<const BusRows> bus) const {
  constexpr std::uint64_t kFull = ~std::uint64_t{0};
  std::size_t b = 0;
  // Whole strips of kStrip blocks: a row's words for them are contiguous,
  // so one pass over the rows fills kStrip conflict words.
  for (; b + kStrip <= blocks_; b += kStrip) {
    std::uint64_t conflict[kStrip] = {};
    for (const BusRows& rows : bus) {
      const std::uint64_t* line = bus_row(rows.line) + b;
      const std::uint64_t* pair = bus_row(rows.pair) + b;
      for (std::size_t j = 0; j < kStrip; ++j) {
        conflict[j] |= line[j] & ~pair[j];
      }
    }
    const auto full = [&conflict] {
      std::uint64_t all = kFull;
      for (const std::uint64_t c : conflict) all &= c;
      return all == kFull;
    };
    // Four rows between exit checks keeps the loads independent; stop once
    // every block of the strip is full.
    for (std::size_t k = 0; k < care.size() && !full(); k += 4) {
      const std::size_t end = std::min(care.size(), k + 4);
      for (std::size_t r = k; r < end; ++r) {
        const std::uint64_t* row = care_row(care[r]) + b;
        for (std::size_t j = 0; j < kStrip; ++j) conflict[j] |= row[j];
      }
    }
    for (std::size_t j = 0; j < kStrip; ++j) {
      if (conflict[j] != kFull) {
        return (b + j) * 64 +
               static_cast<std::size_t>(std::countr_one(conflict[j]));
      }
    }
  }
  // The fewer than kStrip blocks left, one at a time.
  for (; b < blocks_; ++b) {
    std::uint64_t conflict = 0;
    for (const BusRows& rows : bus) {
      conflict |= bus_row(rows.line)[b] & ~bus_row(rows.pair)[b];
    }
    for (std::size_t k = 0; k < care.size() && conflict != kFull; k += 4) {
      const std::size_t end = std::min(care.size(), k + 4);
      for (std::size_t r = k; r < end; ++r) conflict |= care_row(care[r])[b];
    }
    if (conflict != kFull) {
      return b * 64 + static_cast<std::size_t>(std::countr_one(conflict));
    }
  }
  return classes_;
}

std::vector<SiPattern> FirstFitKernel::materialize() const {
  std::vector<std::uint32_t> by_id(terminals_.size());
  std::iota(by_id.begin(), by_id.end(), std::uint32_t{0});
  std::sort(by_id.begin(), by_id.end(), [this](std::uint32_t a,
                                               std::uint32_t b) {
    return terminals_[a] < terminals_[b];
  });
  std::vector<PairRow> pairs;
  for (const std::vector<PairRow>& line : pairs_) {
    pairs.insert(pairs.end(), line.begin(), line.end());
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const PairRow& a, const PairRow& b) {
              return bus_bit_less(a.bit, b.bit);
            });

  std::vector<SiPattern> out(classes_);
  // Block by block, so the appends go to 64 patterns at a time.
  for (std::size_t b = 0; b < blocks_; ++b) {
    SiPattern* const block = out.data() + b * 64;
    for (const std::uint32_t u : by_id) {
      const std::uint32_t r = 4 * u;
      const std::uint64_t values[4] = {care_row(r)[b], care_row(r + 1)[b],
                                       care_row(r + 2)[b], care_row(r + 3)[b]};
      std::uint64_t cared = values[0] | values[1] | values[2] | values[3];
      for (; cared != 0; cared &= cared - 1) {
        const int c = std::countr_zero(cared);
        std::size_t v = 0;
        while (((values[v] >> c) & 1u) != 0) ++v;
        SITAM_DCHECK(v < 4);
        block[c].set(terminals_[u], kCareValues[v]);
      }
    }
    for (const PairRow& pair : pairs) {
      for (std::uint64_t drives = bus_row(pair.row)[b]; drives != 0;
           drives &= drives - 1) {
        block[std::countr_zero(drives)].set_bus(pair.bit.line,
                                                pair.bit.driver_core);
      }
    }
  }
  return out;
}

/// The greedy sweep: `feed` places patterns into a fresh kernel, in sweep
/// order, and returns how many. First-fit in that order *is* the sweep:
/// class k holds exactly what round k would absorb, because a pattern
/// reaches round k's sweep iff rounds 0..k-1 rejected it, and each round's
/// accumulator at pattern i is the union of its members before i.
template <typename Feed>
[[nodiscard]] FirstFitKernel sweep(int total_terminals, int bus_width,
                                   const Feed& feed) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_greedy: negative dimensions");
  }
  FirstFitKernel kernel(total_terminals, bus_width);
  const std::size_t in = feed(kernel);
  // One class per sweep round; the probe count shows how far candidates
  // scan before they find their class.
  SITAM_COUNTER("pattern.compaction.rounds", kernel.classes());
  SITAM_COUNTER("pattern.compaction.block_probes", kernel.block_probes());
  SITAM_COUNTER("pattern.compaction.patterns_in", in);
  SITAM_COUNTER("pattern.compaction.patterns_out", kernel.classes());
  return kernel;
}

/// sweep() over the `members` of `patterns`, in member order.
[[nodiscard]] FirstFitKernel sweep(std::span<const PatternView> patterns,
                                   std::span<const std::uint32_t> members,
                                   int total_terminals, int bus_width) {
  return sweep(total_terminals, bus_width, [&](FirstFitKernel& kernel) {
    for (const std::uint32_t i : members) kernel.place(patterns[i]);
    return members.size();
  });
}

/// 0, 1, ..., n-1: every pattern, in input order.
[[nodiscard]] std::vector<std::uint32_t> all_members(std::size_t n) {
  SITAM_CHECK_MSG(n <= UINT32_MAX, "compaction: too many patterns");
  std::vector<std::uint32_t> members(n);
  std::iota(members.begin(), members.end(), std::uint32_t{0});
  return members;
}

}  // namespace

CompactionResult compact_greedy(std::span<const SiPattern> patterns,
                                int total_terminals, int bus_width,
                                const CompactionConfig& config) {
  if (config.threads < 1) {
    throw std::invalid_argument("compact_greedy: threads must be >= 1");
  }
  Stopwatch watch;
  CompactionResult result;
  result.stats.original_count = patterns.size();
  result.patterns = sweep(pattern_views(patterns),
                          all_members(patterns.size()), total_terminals,
                          bus_width)
                        .materialize();
  result.stats.compacted_count = result.patterns.size();
  result.stats.seconds = watch.seconds();
  return result;
}

std::size_t compact_greedy_count(std::span<const PatternView> patterns,
                                 std::span<const std::uint32_t> members,
                                 int total_terminals, int bus_width) {
  for (const std::uint32_t i : members) {
    if (i >= patterns.size()) {
      throw std::out_of_range("compact_greedy_count: member " +
                              std::to_string(i) + " outside the pattern set");
    }
  }
  return sweep(patterns, members, total_terminals, bus_width).classes();
}

std::size_t compact_greedy_count(std::span<const SiPattern> patterns,
                                 std::span<const std::uint32_t> members,
                                 int total_terminals, int bus_width) {
  return compact_greedy_count(pattern_views(patterns), members,
                              total_terminals, bus_width);
}

std::size_t compact_greedy_count(const RawPatternStore& store,
                                 int total_terminals, int bus_width,
                                 const CancelToken* cancel) {
  return sweep(total_terminals, bus_width, [&](FirstFitKernel& kernel) {
           std::size_t in = 0;
           for (std::size_t k = 0;; ++k) {
             const RawPatternStore::Chunk* chunk = store.wait_chunk(k);
             if (chunk == nullptr) return in;
             check_cancel(cancel);
             for (std::size_t j = 0; j < chunk->size(); ++j) {
               kernel.place((*chunk)[j]);
             }
             in += chunk->size();
           }
         })
      .classes();
}

CompactionResult compact_greedy_reference(std::span<const SiPattern> patterns,
                                          int total_terminals,
                                          int bus_width) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_greedy: negative dimensions");
  }
  Stopwatch watch;
  CompactionResult result;
  result.stats.original_count = patterns.size();

  SparseAccumulator acc(total_terminals, bus_width);
  std::vector<bool> used(patterns.size(), false);
  std::size_t next_seed = 0;
  // Each cycle seeds a new compacted pattern with the first uncompacted one
  // and sweeps all following patterns, merging every compatible one.
  while (true) {
    while (next_seed < patterns.size() && used[next_seed]) ++next_seed;
    if (next_seed == patterns.size()) break;
    acc.reset();
    // fits() on an empty accumulator cannot conflict, but it validates the
    // seed's terminal/bus ranges.
    SITAM_CHECK(acc.fits(patterns[next_seed]));
    acc.absorb(patterns[next_seed]);
    used[next_seed] = true;
    for (std::size_t j = next_seed + 1; j < patterns.size(); ++j) {
      if (used[j]) continue;
      if (acc.fits(patterns[j])) {
        acc.absorb(patterns[j]);
        used[j] = true;
      }
    }
    result.patterns.push_back(acc.to_pattern());
  }

  result.stats.compacted_count = result.patterns.size();
  result.stats.seconds = watch.seconds();
  return result;
}

CompactionResult compact_first_fit(std::span<const SiPattern> patterns,
                                   int total_terminals, int bus_width) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_first_fit: negative dimensions");
  }
  Stopwatch watch;
  CompactionResult result;
  result.stats.original_count = patterns.size();

  // Ids are checked in input order, so a bad id throws the same error
  // whichever order the patterns are then placed in.
  for (const SiPattern& p : patterns) {
    check_ids(p, total_terminals, bus_width);
  }
  FirstFitKernel kernel(total_terminals, bus_width);

  // Welsh-Powell order: densest (hardest to place) patterns first. The
  // density keys are computed once up front — not inside the comparator,
  // which would recompute them on every one of the O(n log n) comparisons.
  std::vector<int> density(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    density[i] = patterns[i].care_count() +
                 static_cast<int>(patterns[i].bus_bits().size());
  }
  std::vector<std::size_t> order(patterns.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&density](std::size_t a, std::size_t b) {
                     return density[a] > density[b];
                   });
  for (const std::size_t i : order) kernel.place(patterns[i]);
  result.patterns = kernel.materialize();

  result.stats.compacted_count = result.patterns.size();
  result.stats.seconds = watch.seconds();
  return result;
}

std::ptrdiff_t first_uncovered(std::span<const SiPattern> original,
                               std::span<const SiPattern> compacted) {
  // The public signature carries no dimensions, so infer the smallest
  // layout covering both sets (lists are sorted: the max id is at the back).
  PackedLayout layout;
  const auto widen = [&layout](std::span<const SiPattern> patterns) {
    for (const SiPattern& p : patterns) {
      const auto assignments = p.assignments();
      if (!assignments.empty()) {
        layout.total_terminals =
            std::max(layout.total_terminals, assignments.back().first + 1);
      }
      const auto bus = p.bus_bits();
      if (!bus.empty()) {
        layout.bus_width = std::max(layout.bus_width, bus.back().line + 1);
      }
    }
  };
  widen(original);
  widen(compacted);

  const PackedPatternSet packed_original(original, layout);
  const PackedPatternSet packed_compacted(compacted, layout);
  // Materialize each compacted pattern as dense planes once; the covering
  // test is then O(original slots) per pair instead of a per-bit probe.
  std::vector<PackedAccumulator> dense;
  dense.reserve(compacted.size());
  for (std::size_t j = 0; j < compacted.size(); ++j) {
    dense.emplace_back(layout);
    dense.back().absorb(packed_compacted, j);
  }

  for (std::size_t i = 0; i < original.size(); ++i) {
    bool covered = false;
    const std::uint64_t summary = packed_original.summary(i);
    for (const PackedAccumulator& c : dense) {
      // A care word outside the compacted pattern's folded occupancy can
      // never be contained — reject in one AND.
      if ((summary & ~c.summary()) != 0) continue;
      if (c.contains(packed_original, i)) {
        covered = true;
        break;
      }
    }
    if (!covered) return static_cast<std::ptrdiff_t>(i);
  }
  return -1;
}

}  // namespace sitam
