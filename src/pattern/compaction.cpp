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

/// First-fit over blocks of 64 compacted patterns ("classes"), stored
/// transposed: one 64-bit word per (row, block), bit c of block b standing
/// for class 64b + c. Each row answers one question a candidate bit asks
/// of every class at once:
///
///   4u + v — classes that care about used terminal u with a value other
///            than care value v (a candidate with v there conflicts);
///   line   — classes occupying a used bus line;
///   pair   — classes driving a line from one driver (one row per distinct
///            (line, driver) pair of the input).
///
/// place() ORs a candidate's terminal rows plus `line & ~pair` per bus bit
/// into one conflict word per block; the lowest zero bit is its class.
/// Unopened classes of the last block have empty columns, so when no open
/// class fits, that lowest zero is exactly the next class to open.
///
/// Row r of block b lives at r * capacity + b, so a candidate's rows are
/// contiguous across blocks and a scan streams a few cache lines. Only
/// used terminals and lines get rows, so memory is ⌈C/64⌉ × (4·U + B + P)
/// words (capacity doubles as blocks open) whatever the declared space.
class FirstFitKernel {
 public:
  /// Validates every id of the `members` of `patterns`, in member order
  /// (the same std::out_of_range the sparse accumulator throws), and ranks
  /// the terminals and (line, driver) pairs they use. Borrows `patterns`.
  FirstFitKernel(std::span<const SiPattern> patterns,
                 std::span<const std::uint32_t> members, int total_terminals,
                 int bus_width);

  /// Puts pattern `i` (a member) into the first class it is compatible
  /// with (opening a new one if none is) and merges it in.
  void place(std::size_t i);

  /// Classes opened so far.
  [[nodiscard]] std::size_t classes() const noexcept { return classes_; }
  /// Blocks tested over all place() calls.
  [[nodiscard]] std::uint64_t block_probes() const noexcept {
    return block_probes_;
  }

  /// Builds each class's pattern straight from the masks. A class cares
  /// about terminal u iff some row 4u + v holds its bit, and its value is
  /// the one row that lacks it. Walking terminals, then pairs, in ascending
  /// order makes every set()/set_bus() an append.
  [[nodiscard]] std::vector<SiPattern> materialize() const;

 private:
  struct BusRows {
    std::uint32_t line = 0;
    std::uint32_t pair = 0;
  };

  [[nodiscard]] std::uint64_t* row(std::uint32_t r) {
    return masks_.data() + static_cast<std::size_t>(r) * capacity_;
  }
  [[nodiscard]] const std::uint64_t* row(std::uint32_t r) const {
    return masks_.data() + static_cast<std::size_t>(r) * capacity_;
  }
  /// Dense rank of a used terminal: popcount prefix of its bitmap word
  /// plus the used ids below it in that word.
  [[nodiscard]] std::uint32_t rank(int terminal) const {
    const auto t = static_cast<std::uint32_t>(terminal);
    const std::uint64_t below =
        used_[t >> 6] & ((std::uint64_t{1} << (t & 63)) - 1);
    return prefix_[t >> 6] + static_cast<std::uint32_t>(std::popcount(below));
  }
  /// Appends an empty block, doubling the capacity (and re-laying out the
  /// rows) when it is full.
  void add_block();

  std::span<const SiPattern> patterns_;
  std::vector<std::uint64_t> used_;         // bitmap of used terminal ids
  std::vector<std::uint32_t> prefix_;       // used ids before each word
  std::vector<int> terminals_;              // rank -> terminal id
  std::vector<BusBit> pairs_;               // sorted distinct (line, driver)
  std::vector<std::uint32_t> pair_line_;    // pair -> its line row
  std::uint32_t pair_base_ = 0;             // first pair row
  std::uint32_t rows_ = 0;
  std::size_t capacity_ = 0;                // blocks allocated per row
  std::size_t blocks_ = 0;                  // blocks in use
  std::size_t classes_ = 0;
  std::uint64_t block_probes_ = 0;
  std::vector<std::uint64_t> masks_;        // rows_ x capacity_
  std::vector<std::uint32_t> care_;         // place() scratch: care rows
  std::vector<BusRows> bus_;                // place() scratch: bus rows
};

FirstFitKernel::FirstFitKernel(std::span<const SiPattern> patterns,
                               std::span<const std::uint32_t> members,
                               int total_terminals, int bus_width)
    : patterns_(patterns) {
  // Validate in member order; mark the used terminals in a bitmap that
  // grows to the largest id seen, not the declared space.
  for (const std::uint32_t i : members) {
    const SiPattern& p = patterns[i];
    for (const auto& [terminal, value] : p.assignments()) {
      (void)value;
      if (terminal >= total_terminals) throw_terminal_out_of_range(terminal);
      const auto t = static_cast<std::uint32_t>(terminal);
      if ((t >> 6) >= used_.size()) used_.resize((t >> 6) + 1, 0);
      used_[t >> 6] |= std::uint64_t{1} << (t & 63);
    }
    for (const BusBit& bit : p.bus_bits()) {
      if (bit.line >= bus_width) throw_bus_out_of_range(bit.line);
      pairs_.push_back(bit);
    }
  }
  prefix_.resize(used_.size());
  for (std::size_t w = 0; w < used_.size(); ++w) {
    prefix_[w] = static_cast<std::uint32_t>(terminals_.size());
    for (std::uint64_t bits = used_[w]; bits != 0; bits &= bits - 1) {
      terminals_.push_back(static_cast<int>(w * 64) + std::countr_zero(bits));
    }
  }
  std::sort(pairs_.begin(), pairs_.end(), bus_bit_less);
  pairs_.erase(std::unique(pairs_.begin(), pairs_.end()), pairs_.end());

  // Rows: four per used terminal, one per used line, one per pair.
  const std::size_t line_base = 4 * terminals_.size();
  std::size_t lines = 0;
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    if (k > 0 && pairs_[k].line != pairs_[k - 1].line) ++lines;
    pair_line_.push_back(static_cast<std::uint32_t>(line_base + lines));
  }
  if (!pairs_.empty()) ++lines;
  const std::size_t rows = line_base + lines + pairs_.size();
  SITAM_CHECK_MSG(rows <= UINT32_MAX, "compaction: too many kernel rows");
  rows_ = static_cast<std::uint32_t>(rows);
  pair_base_ = static_cast<std::uint32_t>(line_base + lines);
}

void FirstFitKernel::add_block() {
  if (blocks_ == capacity_) {
    const std::size_t capacity = std::max<std::size_t>(1, 2 * capacity_);
    std::vector<std::uint64_t> masks(rows_ * capacity, 0);
    for (std::uint32_t r = 0; r < rows_; ++r) {
      std::copy_n(row(r), blocks_, masks.data() + r * capacity);
    }
    masks_ = std::move(masks);
    capacity_ = capacity;
  }
  ++blocks_;
}

void FirstFitKernel::place(std::size_t i) {
  const SiPattern& p = patterns_[i];
  care_.clear();
  std::size_t transitions = 0;
  for (const auto& [terminal, value] : p.assignments()) {
    care_.push_back(4 * rank(terminal) + care_index(value));
    // Transitions first: their rows reject most classes, so the scan can
    // usually stop reading a block after them.
    if (is_transition(value)) std::swap(care_[transitions++], care_.back());
  }
  bus_.clear();
  for (const BusBit& bit : p.bus_bits()) {
    const auto k = static_cast<std::size_t>(
        std::lower_bound(pairs_.begin(), pairs_.end(), bit, bus_bit_less) -
        pairs_.begin());
    bus_.push_back(
        BusRows{pair_line_[k], pair_base_ + static_cast<std::uint32_t>(k)});
  }

  constexpr std::uint64_t kFull = ~std::uint64_t{0};
  const std::span<const std::uint32_t> care = care_;
  const std::span<const BusRows> bus = bus_;
  std::size_t cls = classes_;
  std::size_t b = 0;
  for (; b < blocks_; ++b) {
    std::uint64_t conflict = 0;
    for (const BusRows& rows : bus) {
      conflict |= row(rows.line)[b] & ~row(rows.pair)[b];
    }
    // Four rows between exit checks keeps the loads independent.
    for (std::size_t k = 0; k < care.size() && conflict != kFull; k += 4) {
      const std::size_t end = std::min(care.size(), k + 4);
      for (std::size_t j = k; j < end; ++j) conflict |= row(care[j])[b];
    }
    if (conflict != kFull) {
      cls = b * 64 + static_cast<std::size_t>(std::countr_one(conflict));
      break;
    }
  }
  block_probes_ += std::min(b + 1, blocks_);
  if (cls == classes_) {
    if (classes_ == blocks_ * 64) add_block();
    ++classes_;
  }

  b = cls / 64;
  const std::uint64_t bit = std::uint64_t{1} << (cls % 64);
  for (const std::uint32_t r : care) {
    // The class now conflicts with every other value at this terminal.
    const std::uint32_t base = r & ~3u;
    for (std::uint32_t v = base; v < base + 4; ++v) {
      if (v != r) row(v)[b] |= bit;
    }
  }
  for (const BusRows& rows : bus) {
    row(rows.line)[b] |= bit;
    row(rows.pair)[b] |= bit;
  }
}

std::vector<SiPattern> FirstFitKernel::materialize() const {
  std::vector<SiPattern> out(classes_);
  // Block by block, so the appends go to 64 patterns at a time.
  for (std::size_t b = 0; b < blocks_; ++b) {
    SiPattern* const block = out.data() + b * 64;
    for (std::size_t u = 0; u < terminals_.size(); ++u) {
      const auto r = static_cast<std::uint32_t>(4 * u);
      const std::uint64_t values[4] = {row(r)[b], row(r + 1)[b],
                                       row(r + 2)[b], row(r + 3)[b]};
      std::uint64_t cared = values[0] | values[1] | values[2] | values[3];
      for (; cared != 0; cared &= cared - 1) {
        const int c = std::countr_zero(cared);
        std::size_t v = 0;
        while (((values[v] >> c) & 1u) != 0) ++v;
        SITAM_DCHECK(v < 4);
        block[c].set(terminals_[u], kCareValues[v]);
      }
    }
    for (std::size_t k = 0; k < pairs_.size(); ++k) {
      std::uint64_t drives = row(pair_base_ + static_cast<std::uint32_t>(k))[b];
      for (; drives != 0; drives &= drives - 1) {
        block[std::countr_zero(drives)].set_bus(pairs_[k].line,
                                                pairs_[k].driver_core);
      }
    }
  }
  return out;
}

/// 0, 1, ..., n-1: every pattern, in input order.
[[nodiscard]] std::vector<std::uint32_t> all_members(std::size_t n) {
  SITAM_CHECK_MSG(n <= UINT32_MAX, "compaction: too many patterns");
  std::vector<std::uint32_t> members(n);
  std::iota(members.begin(), members.end(), std::uint32_t{0});
  return members;
}

/// The greedy sweep over `members`, in member order. First-fit in that
/// order *is* the sweep: class k holds exactly what round k would absorb,
/// because a pattern reaches round k's sweep iff rounds 0..k-1 rejected
/// it, and each round's accumulator at pattern i is the union of its
/// members before i.
[[nodiscard]] FirstFitKernel sweep(std::span<const SiPattern> patterns,
                                   std::span<const std::uint32_t> members,
                                   int total_terminals, int bus_width) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_greedy: negative dimensions");
  }
  FirstFitKernel kernel(patterns, members, total_terminals, bus_width);
  for (const std::uint32_t i : members) kernel.place(i);
  // One class per sweep round; the probe count shows how far candidates
  // scan before they find their class.
  SITAM_COUNTER("pattern.compaction.rounds", kernel.classes());
  SITAM_COUNTER("pattern.compaction.block_probes", kernel.block_probes());
  SITAM_COUNTER("pattern.compaction.patterns_in", members.size());
  SITAM_COUNTER("pattern.compaction.patterns_out", kernel.classes());
  return kernel;
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
  result.patterns =
      sweep(patterns, all_members(patterns.size()), total_terminals,
            bus_width)
          .materialize();
  result.stats.compacted_count = result.patterns.size();
  result.stats.seconds = watch.seconds();
  return result;
}

std::size_t compact_greedy_count(std::span<const SiPattern> patterns,
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

  // The kernel validates in input order, so a bad id throws the same error
  // whichever order the patterns are then placed in.
  FirstFitKernel kernel(patterns, all_members(patterns.size()),
                        total_terminals, bus_width);

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
  for (const std::size_t i : order) kernel.place(i);
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
