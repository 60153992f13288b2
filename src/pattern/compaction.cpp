#include "pattern/compaction.h"

#include <algorithm>
#include <bit>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/obs.h"
#include "pattern/packed.h"
#include "util/check.h"
#include "util/stopwatch.h"

namespace sitam {

namespace {

constexpr SigValue kCareValues[] = {SigValue::kStable0, SigValue::kStable1,
                                    SigValue::kRise, SigValue::kFall};

/// Index of a cared-for value in kCareValues.
[[nodiscard]] std::uint32_t care_index(SigValue v) {
  return static_cast<std::uint32_t>(v) - 1;
}

/// The std::out_of_range every entry point throws for the first id of `p`
/// outside [0, total_terminals) or [0, bus_width): terminals, then bus
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

void check_dimensions(int total_terminals, int bus_width) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_greedy: negative dimensions");
  }
}

/// Blocks probed together: a row's words for one strip are contiguous.
constexpr std::size_t kStrip = 4;
/// 64-class blocks per stage. Twelve (three strips) keep a stage's masks
/// under 1 MB on the p34392/p93791 sets, inside one core's L2; DESIGN §9
/// has the timing that chose it.
constexpr std::size_t kStageClasses = kCompactionStageClasses;
constexpr std::size_t kStageBlocks = kStageClasses / 64;
static_assert(kStageClasses % (64 * kStrip) == 0);

/// Patterns per stage-0 chunk when the input is a member list (a store
/// brings its own chunks).
constexpr std::size_t kChunkPatterns = RawPatternStore::kChunkPatterns;

/// Candidates on their way from one stage to the next: per candidate its
/// care-row count n, its bus-bit count m, its n care rows (transitions
/// first) and m (line row, pair row) pairs. No row of the list lies at or
/// beyond `care_rows` / `bus_rows`, the rows stage 0 had numbered when it
/// wrote the candidates.
struct Forward {
  std::size_t care_rows = 0;
  std::size_t bus_rows = 0;
  std::vector<std::uint32_t> rows;
};

/// One chunk of stage 0's input: patterns[members[i]] for i < size, or
/// patterns[i] when `members` is null. Borrowed from the caller.
struct Chunk {
  const PatternView* patterns = nullptr;
  const std::uint32_t* members = nullptr;
  std::size_t size = 0;

  [[nodiscard]] const PatternView& operator[](std::size_t i) const {
    return patterns[members != nullptr ? members[i] : i];
  }
};

/// Stage 0's row numbering. A used terminal gets care rows 4u..4u+3 (u its
/// rank), and a used bus line and each (line, driver) pair a bus row, the
/// first time a candidate uses it. Row numbers never reach the output:
/// materialize() walks terminals and pairs in ascending id order.
class RowIndex {
 public:
  struct PairRow {
    BusBit bit;
    std::uint32_t row = 0;
  };

  RowIndex(int total_terminals, int bus_width)
      : total_terminals_(total_terminals), bus_width_(bus_width) {}

  /// Checks `p`'s ids (as check_ids does) and writes its care rows
  /// (transitions first: their rows reject most classes, so a probe can
  /// usually stop reading a strip after them) and its (line, pair) rows.
  void encode(const PatternView& p, std::vector<std::uint32_t>& care,
              std::vector<std::uint32_t>& bus);

  [[nodiscard]] std::size_t care_rows() const { return 4 * terminals_.size(); }
  [[nodiscard]] std::size_t bus_rows() const { return bus_rows_; }
  /// Terminal id per rank.
  [[nodiscard]] const std::vector<int>& terminals() const {
    return terminals_;
  }
  /// Every (line, driver) pair with its row, in (line, driver) order.
  [[nodiscard]] std::vector<PairRow> sorted_pairs() const;

 private:
  static constexpr std::uint32_t kNoRow = UINT32_MAX;

  [[nodiscard]] std::uint32_t rank(int terminal);
  [[nodiscard]] std::uint32_t add_bus_row();

  int total_terminals_ = 0;
  int bus_width_ = 0;
  std::vector<std::uint32_t> rank_of_;       // terminal id -> rank or kNoRow
  std::vector<int> terminals_;               // rank -> terminal id
  std::vector<std::uint32_t> line_row_;      // line -> bus row or kNoRow
  std::vector<std::vector<PairRow>> pairs_;  // line -> its pairs' rows
  std::uint32_t bus_rows_ = 0;
};

std::uint32_t RowIndex::rank(int terminal) {
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
  }
  return rank;
}

std::uint32_t RowIndex::add_bus_row() {
  SITAM_CHECK_MSG(bus_rows_ < UINT32_MAX, "compaction: too many kernel rows");
  return bus_rows_++;
}

void RowIndex::encode(const PatternView& p, std::vector<std::uint32_t>& care,
                      std::vector<std::uint32_t>& bus) {
  const auto cares = p.assignments();
  care.resize(cares.size());
  // Locals, so the stores into `care` need not reload the members.
  const int total_terminals = total_terminals_;
  std::uint32_t* const out = care.data();
  // Transitions fill from the front, stable values from the back.
  std::size_t front = 0;
  std::size_t back = cares.size();
  for (const auto& [terminal, value] : cares) {
    if (terminal < 0 || terminal >= total_terminals) {
      throw_terminal_out_of_range(terminal);
    }
    const auto t = static_cast<std::size_t>(terminal);
    std::uint32_t u = t < rank_of_.size() ? rank_of_[t] : kNoRow;
    if (u == kNoRow) u = rank(terminal);
    const bool transition = is_transition(value);
    out[transition ? front : back - 1] = 4 * u + care_index(value);
    front += transition ? 1 : 0;
    back -= transition ? 0 : 1;
  }
  bus.clear();
  for (const BusBit& bit : p.bus_bits()) {
    if (bit.line < 0 || bit.line >= bus_width_) {
      throw_bus_out_of_range(bit.line);
    }
    const auto l = static_cast<std::size_t>(bit.line);
    if (l >= line_row_.size()) {
      line_row_.resize(l + 1, kNoRow);
      pairs_.resize(l + 1);
    }
    if (line_row_[l] == kNoRow) line_row_[l] = add_bus_row();
    std::vector<PairRow>& pairs = pairs_[l];
    auto pair = std::find_if(pairs.begin(), pairs.end(), [&](const PairRow& r) {
      return r.bit.driver_core == bit.driver_core;
    });
    if (pair == pairs.end()) {
      pairs.push_back(PairRow{bit, add_bus_row()});
      pair = pairs.end() - 1;
    }
    bus.push_back(line_row_[l]);
    bus.push_back(pair->row);
  }
}

std::vector<RowIndex::PairRow> RowIndex::sorted_pairs() const {
  std::vector<PairRow> pairs;
  for (const std::vector<PairRow>& line : pairs_) {
    pairs.insert(pairs.end(), line.begin(), line.end());
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const PairRow& a, const PairRow& b) {
              return a.bit.line != b.bit.line
                         ? a.bit.line < b.bit.line
                         : a.bit.driver_core < b.bit.driver_core;
            });
  return pairs;
}

/// One class-range stage: up to kStageBlocks blocks of 64 classes, bit c of
/// block b standing for the stage's class 64b + c. Each row answers one
/// question a candidate bit asks of every class at once:
///
///   4u + v — classes that care about terminal u with a value other than
///            care value v (a candidate with v there conflicts);
///   line   — classes occupying a bus line;
///   pair   — classes driving a line from one driver.
///
/// The blocks are held strip-major: a strip of kStrip blocks is two slabs,
/// care rows and bus rows, with row r's kStrip words at [kStrip·r,
/// kStrip·r + kStrip). A candidate's conflict words for a strip are the OR
/// of its care rows plus `line & ~pair` per bus bit; the lowest zero bit is
/// its class. Unopened classes have empty columns, so when no open class
/// fits, that lowest zero is exactly the next class to open.
class Stage {
 public:
  /// Grows every slab to `care_rows` and `bus_rows` rows (new rows empty).
  void grow(std::size_t care_rows, std::size_t bus_rows);

  /// Puts the candidate whose rows are `care` and `bus` (line, pair, ...)
  /// into its first compatible class, opening the next class if none fits;
  /// returns false, placing nothing, when none fits and every class is
  /// open. Rows must lie below grow()'s counts.
  [[nodiscard]] bool place(std::span<const std::uint32_t> care,
                           std::span<const std::uint32_t> bus);

  /// Places every candidate of `in` in order; appends the ones it rejects
  /// to `out`.
  void place_all(const Forward& in, Forward& out);

  [[nodiscard]] std::size_t classes() const { return classes_; }
  /// Blocks tested over all place() calls.
  [[nodiscard]] std::uint64_t block_probes() const { return block_probes_; }

  /// Builds each class's pattern into out[0, classes()). A class cares
  /// about terminal u iff some row 4u + v holds its bit, and its value is
  /// the one row that lacks it. `by_id` lists ranks in ascending terminal
  /// order and `pairs` the pairs in (line, driver) order, so every
  /// set()/set_bus() is an append.
  void materialize(std::span<const std::uint32_t> by_id,
                   const std::vector<int>& terminals,
                   std::span<const RowIndex::PairRow> pairs,
                   SiPattern* out) const;

 private:
  struct Strip {
    std::vector<std::uint64_t> care;
    std::vector<std::uint64_t> bus;
  };

  /// The first class compatible with the candidate: an open one, else
  /// classes_ (the next to open, whose column is still empty).
  [[nodiscard]] std::size_t first_fit(
      std::span<const std::uint32_t> care,
      std::span<const std::uint32_t> bus) const;

  std::vector<Strip> strips_;  // ⌈blocks opened / kStrip⌉
  std::size_t care_rows_ = 0;
  std::size_t bus_rows_ = 0;
  std::size_t classes_ = 0;
  std::uint64_t block_probes_ = 0;
};

void Stage::grow(std::size_t care_rows, std::size_t bus_rows) {
  if (care_rows <= care_rows_ && bus_rows <= bus_rows_) return;
  care_rows_ = std::max(care_rows_, care_rows);
  bus_rows_ = std::max(bus_rows_, bus_rows);
  for (Strip& strip : strips_) {
    strip.care.resize(kStrip * care_rows_, 0);
    strip.bus.resize(kStrip * bus_rows_, 0);
  }
}

std::size_t Stage::first_fit(std::span<const std::uint32_t> care,
                             std::span<const std::uint32_t> bus) const {
  constexpr std::uint64_t kFull = ~std::uint64_t{0};
  for (std::size_t s = 0; s < strips_.size(); ++s) {
    const Strip& strip = strips_[s];
    std::uint64_t conflict[kStrip] = {};
    for (std::size_t k = 0; k < bus.size(); k += 2) {
      const std::uint64_t* line = strip.bus.data() + kStrip * bus[k];
      const std::uint64_t* pair = strip.bus.data() + kStrip * bus[k + 1];
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
        const std::uint64_t* row = strip.care.data() + kStrip * care[r];
        for (std::size_t j = 0; j < kStrip; ++j) conflict[j] |= row[j];
      }
    }
    for (std::size_t j = 0; j < kStrip; ++j) {
      if (conflict[j] != kFull) {
        return (kStrip * s + j) * 64 +
               static_cast<std::size_t>(std::countr_one(conflict[j]));
      }
    }
  }
  return classes_;
}

bool Stage::place(std::span<const std::uint32_t> care,
                  std::span<const std::uint32_t> bus) {
  const std::size_t cls = first_fit(care, bus);
  const std::size_t blocks = (classes_ + 63) / 64;
  block_probes_ += std::min(cls / 64 + 1, blocks);
  if (cls == kStageClasses) return false;
  if (cls == classes_) {
    if (classes_ % (64 * kStrip) == 0) {
      strips_.push_back(Strip{std::vector<std::uint64_t>(kStrip * care_rows_),
                              std::vector<std::uint64_t>(kStrip * bus_rows_)});
    }
    ++classes_;
  }

  Strip& strip = strips_[cls / (64 * kStrip)];
  const std::size_t j = cls / 64 % kStrip;
  const std::uint64_t bit = std::uint64_t{1} << (cls % 64);
  for (const std::uint32_t r : care) {
    // The class now conflicts with every other value at this terminal.
    const std::uint32_t base = r & ~3u;
    for (std::uint32_t v = base; v < base + 4; ++v) {
      if (v != r) strip.care[kStrip * v + j] |= bit;
    }
  }
  for (const std::uint32_t r : bus) strip.bus[kStrip * r + j] |= bit;
  return true;
}

void Stage::place_all(const Forward& in, Forward& out) {
  grow(in.care_rows, in.bus_rows);
  out.care_rows = in.care_rows;
  out.bus_rows = in.bus_rows;
  const std::uint32_t* at = in.rows.data();
  const std::uint32_t* const end = at + in.rows.size();
  while (at != end) {
    const std::size_t care = at[0];
    const std::size_t bus = 2 * static_cast<std::size_t>(at[1]);
    const std::uint32_t* const next = at + 2 + care + bus;
    if (!place({at + 2, care}, {at + 2 + care, bus})) {
      out.rows.insert(out.rows.end(), at, next);
    }
    at = next;
  }
}

void Stage::materialize(std::span<const std::uint32_t> by_id,
                        const std::vector<int>& terminals,
                        std::span<const RowIndex::PairRow> pairs,
                        SiPattern* out) const {
  // Block by block, so the appends go to 64 patterns at a time.
  for (std::size_t b = 0; 64 * b < classes_; ++b) {
    const Strip& strip = strips_[b / kStrip];
    const std::size_t j = b % kStrip;
    SiPattern* const block = out + 64 * b;
    for (const std::uint32_t u : by_id) {
      const std::size_t r = 4 * static_cast<std::size_t>(u);
      if (r >= care_rows_) continue;  // numbered after this stage's rows
      const std::uint64_t* row = strip.care.data() + kStrip * r;
      const std::uint64_t values[4] = {row[j], row[kStrip + j],
                                       row[2 * kStrip + j],
                                       row[3 * kStrip + j]};
      std::uint64_t cared = values[0] | values[1] | values[2] | values[3];
      for (; cared != 0; cared &= cared - 1) {
        const int c = std::countr_zero(cared);
        std::size_t v = 0;
        while (((values[v] >> c) & 1u) != 0) ++v;
        SITAM_DCHECK(v < 4);
        block[c].set(terminals[u], kCareValues[v]);
      }
    }
    for (const RowIndex::PairRow& pair : pairs) {
      if (pair.row >= bus_rows_) continue;
      for (std::uint64_t drives = strip.bus[kStrip * pair.row + j];
           drives != 0; drives &= drives - 1) {
        block[std::countr_zero(drives)].set_bus(pair.bit.line,
                                                pair.bit.driver_core);
      }
    }
  }
}

/// The greedy sweep as a chain of stages: stage 0 numbers the rows and
/// places every candidate; each stage forwards what it rejects once it is
/// full. First-fit in sweep order *is* the sweep: class k holds exactly
/// what round k would absorb, because a pattern reaches round k's sweep iff
/// rounds 0..k-1 rejected it, and each round's accumulator at pattern i is
/// the union of its members before i. Staging keeps that, since a stage
/// sees exactly the candidates every lower class rejected, in order.
///
/// place() runs one chunk through every stage on the caller. A pool runs
/// the same work as (stage, chunk) tasks (PooledSweep): place_first() is
/// task (0, c) and stage(s).place_all() task (s, c), each stage's tasks in
/// chunk order.
class Sweep {
 public:
  Sweep(int total_terminals, int bus_width)
      : index_(total_terminals, bus_width), first_(&stages_.emplace_back()) {}
  // first_ points into stages_.
  Sweep(const Sweep&) = delete;
  Sweep& operator=(const Sweep&) = delete;

  /// Task (0, c): numbers, checks and places the candidates of `in` in
  /// stage 0; `out` gets the ones it forwards.
  void place_first(const Chunk& in, Forward& out);

  /// Stage s. Its address is stable while later stages are added.
  [[nodiscard]] Stage& stage(std::size_t s) { return stages_[s]; }
  /// Appends the next stage.
  void add_stage() { stages_.emplace_back(); }

  /// Task (0, c), then (1, c), ... while candidates are forwarded, on the
  /// caller.
  void place(const Chunk& in);

  [[nodiscard]] std::size_t classes() const;
  [[nodiscard]] std::size_t patterns_in() const { return patterns_in_; }
  [[nodiscard]] std::vector<SiPattern> materialize() const;
  /// Records the sweep's counters; call once every chunk is placed.
  void count() const;

 private:
  RowIndex index_;
  std::deque<Stage> stages_;
  Stage* first_;  // stage 0, read without touching the deque
  std::size_t patterns_in_ = 0;
  std::vector<std::uint32_t> care_;  // place_first() scratch: care rows
  std::vector<std::uint32_t> bus_;   // place_first() scratch: bus rows
};

void Sweep::place_first(const Chunk& in, Forward& out) {
  for (std::size_t i = 0; i < in.size; ++i) {
    index_.encode(in[i], care_, bus_);
    first_->grow(index_.care_rows(), index_.bus_rows());
    if (!first_->place(care_, bus_)) {
      out.rows.push_back(static_cast<std::uint32_t>(care_.size()));
      out.rows.push_back(static_cast<std::uint32_t>(bus_.size() / 2));
      out.rows.insert(out.rows.end(), care_.begin(), care_.end());
      out.rows.insert(out.rows.end(), bus_.begin(), bus_.end());
    }
  }
  patterns_in_ += in.size;
  out.care_rows = index_.care_rows();
  out.bus_rows = index_.bus_rows();
}

void Sweep::place(const Chunk& in) {
  Forward rows;
  {
    SITAM_TRACE_SPAN_ARG("pattern.compaction.stage", 0);
    place_first(in, rows);
  }
  for (std::size_t s = 1; !rows.rows.empty(); ++s) {
    if (s == stages_.size()) add_stage();
    SITAM_TRACE_SPAN_ARG("pattern.compaction.stage",
                         static_cast<std::int64_t>(s));
    Forward next;
    stages_[s].place_all(rows, next);
    rows = std::move(next);
  }
}

std::size_t Sweep::classes() const {
  std::size_t classes = 0;
  for (const Stage& stage : stages_) classes += stage.classes();
  return classes;
}

std::vector<SiPattern> Sweep::materialize() const {
  const std::vector<int>& terminals = index_.terminals();
  std::vector<std::uint32_t> by_id(terminals.size());
  std::iota(by_id.begin(), by_id.end(), std::uint32_t{0});
  std::sort(by_id.begin(), by_id.end(),
            [&terminals](std::uint32_t a, std::uint32_t b) {
              return terminals[a] < terminals[b];
            });
  const std::vector<RowIndex::PairRow> pairs = index_.sorted_pairs();
  std::vector<SiPattern> out(classes());
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    stages_[s].materialize(by_id, terminals, pairs,
                           out.data() + s * kStageClasses);
  }
  return out;
}

void Sweep::count() const {
  std::uint64_t probes = 0;
  for (const Stage& stage : stages_) probes += stage.block_probes();
  // One class per sweep round; the probe count shows how far candidates
  // scan before they find their class.
  SITAM_COUNTER("pattern.compaction.rounds", classes());
  SITAM_COUNTER("pattern.compaction.block_probes", probes);
  SITAM_COUNTER("pattern.compaction.patterns_in", patterns_in_);
  SITAM_COUNTER("pattern.compaction.patterns_out", classes());
  SITAM_COUNTER("pattern.compaction.stages", stages_.size());
}

/// `members` in chunks: ⌈size / kChunkPatterns⌉ equal slices.
[[nodiscard]] std::vector<Chunk> member_chunks(
    std::span<const PatternView> patterns,
    std::span<const std::uint32_t> members) {
  std::vector<Chunk> chunks;
  const std::size_t n = members.size();
  const std::size_t count = (n + kChunkPatterns - 1) / kChunkPatterns;
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t begin = n * c / count;
    const std::size_t end = n * (c + 1) / count;
    chunks.push_back(
        Chunk{patterns.data(), members.data() + begin, end - begin});
  }
  return chunks;
}

/// A Sweep run as (stage, chunk) tasks on a pool. Stage s's queued inputs
/// run one task at a time in chunk order: a task for stage s is submitted
/// when an input reaches an idle stage, and when a task ends with more
/// queued. Each task takes its input and puts its forward list under the
/// mutex, so the tasks synchronize once per (stage, chunk). The tasks
/// share ownership; the one that leaves nothing running after close()
/// marks the sweep done. After a task throws, queued inputs are dropped
/// and no task is submitted, so the exception reaches the caller once the
/// tasks already running return. The caller's future is deferred: its
/// get() waits for done on the caller's thread and takes the exception
/// over from the sweep there, so no worker holds the exception object
/// once the caller can see it (one shared object would be freed by
/// whichever thread drops it last, ordered only by the C++ runtime's
/// uninstrumented reference counts: a ThreadSanitizer race).
class PooledSweep : public std::enable_shared_from_this<PooledSweep> {
 public:
  PooledSweep(int total_terminals, int bus_width, Executor& executor,
              const CancelToken* cancel, const char* span)
      : sweep_(total_terminals, bus_width),
        executor_(executor),
        cancel_(cancel),
        lanes_(1) {
    if (span != nullptr) span_.emplace(span);
  }

  /// The count, or the first exception, once the sweep is done; get()
  /// waits on the calling thread.
  [[nodiscard]] std::future<std::size_t> result() {
    return std::async(std::launch::deferred,
                      [self = shared_from_this()] { return self->wait(); });
  }

  /// Queues `chunk` for stage 0; it must stay valid until the future's
  /// get() or wait() returns. Dropped after a failure.
  void feed(const Chunk& chunk);
  /// No more chunks.
  void close();

 private:
  /// The queued inputs of one stage (stage 0's are `chunks_`).
  struct Lane {
    std::deque<Forward> inbox;
    bool busy = false;  ///< A task of this stage is queued or running.
  };

  /// Task (s, next queued chunk).
  void run(std::size_t s);
  /// Submits task s; a failed submission fails the sweep.
  void submit(std::size_t s);
  /// Marks stage s idle and drops its queued inputs; true when that
  /// leaves nothing running after close(). Caller holds mutex_.
  [[nodiscard]] bool release_locked(std::size_t s);
  /// Closes the span, records the counters and marks the sweep done;
  /// once, after the last task.
  void finish();
  /// Waits until the sweep is done; returns its count or rethrows its
  /// exception.
  [[nodiscard]] std::size_t wait();

  Sweep sweep_;
  Executor& executor_;
  const CancelToken* cancel_;
  std::optional<obs::ScopedSpan> span_;
  std::mutex mutex_;
  std::condition_variable finished_;
  std::deque<Chunk> chunks_;       // guarded_by(mutex_)
  std::deque<Lane> lanes_;         // guarded_by(mutex_)
  std::size_t busy_ = 0;           // guarded_by(mutex_): lanes busy
  bool closed_ = false;            // guarded_by(mutex_)
  bool done_ = false;              // guarded_by(mutex_)
  std::size_t classes_ = 0;        // guarded_by(mutex_): once done_
  std::exception_ptr error_;       // guarded_by(mutex_)
};

void PooledSweep::submit(std::size_t s) {
  bool last = false;
  try {
    (void)executor_.submit([self = shared_from_this(), s] { self->run(s); });
  } catch (...) {
    const std::lock_guard lock(mutex_);
    if (!error_) error_ = std::current_exception();
    last = release_locked(s);
  }
  if (last) finish();
}

bool PooledSweep::release_locked(std::size_t s) {
  if (s == 0) chunks_.clear();
  lanes_[s].inbox.clear();
  lanes_[s].busy = false;
  --busy_;
  return busy_ == 0 && closed_;
}

void PooledSweep::feed(const Chunk& chunk) {
  {
    const std::lock_guard lock(mutex_);
    if (error_ || closed_) return;
    chunks_.push_back(chunk);
    if (lanes_.front().busy) return;
    lanes_.front().busy = true;
    ++busy_;
  }
  submit(0);
}

void PooledSweep::close() {
  {
    const std::lock_guard lock(mutex_);
    closed_ = true;
    if (busy_ > 0) return;
  }
  finish();
}

void PooledSweep::run(std::size_t s) {
  Chunk chunk;
  Forward in;
  Stage* stage = nullptr;
  bool failed = false;
  {
    const std::lock_guard lock(mutex_);
    if (s == 0) {
      chunk = chunks_.front();
      chunks_.pop_front();
    } else {
      in = std::move(lanes_[s].inbox.front());
      lanes_[s].inbox.pop_front();
    }
    stage = &sweep_.stage(s);
    failed = error_ != nullptr;
  }
  Forward out;
  std::exception_ptr error;
  if (!failed) {
    SITAM_TRACE_SPAN_ARG("pattern.compaction.stage",
                         static_cast<std::int64_t>(s));
    try {
      check_cancel(cancel_);
      if (s == 0) {
        sweep_.place_first(chunk, out);
      } else {
        stage->place_all(in, out);
      }
    } catch (...) {
      error = std::current_exception();
    }
  }
  in = {};  // consumed: free it before the next task can allocate

  std::size_t next[2];
  std::size_t submits = 0;
  bool last = false;
  {
    const std::lock_guard lock(mutex_);
    if (error && !error_) error_ = error;
    error = nullptr;  // the sweep's copy is the only one left here
    if (!error_ && !out.rows.empty()) {
      if (lanes_.size() == s + 1) {
        lanes_.emplace_back();
        sweep_.add_stage();
      }
      Lane& after = lanes_[s + 1];
      after.inbox.push_back(std::move(out));
      if (!after.busy) {
        after.busy = true;
        ++busy_;
        next[submits++] = s + 1;
      }
    }
    const bool more = s == 0 ? !chunks_.empty() : !lanes_[s].inbox.empty();
    if (more && !error_) {
      next[submits++] = s;
    } else {
      last = release_locked(s);
    }
  }
  for (std::size_t k = 0; k < submits; ++k) submit(next[k]);
  if (last) finish();
}

void PooledSweep::finish() {
  bool failed = false;
  {
    const std::lock_guard lock(mutex_);
    failed = error_ != nullptr;
  }
  // Nothing runs any more: the sweep is this thread's to read.
  if (!failed) {
    sweep_.count();
    if (span_) span_->set_arg(static_cast<std::int64_t>(sweep_.patterns_in()));
  }
  span_.reset();
  {
    const std::lock_guard lock(mutex_);
    classes_ = sweep_.classes();
    done_ = true;
  }
  finished_.notify_all();
}

std::size_t PooledSweep::wait() {
  std::exception_ptr error;
  {
    std::unique_lock lock(mutex_);
    finished_.wait(lock, [this] { return done_; });
    if (!error_) return classes_;
    error = std::move(error_);
    error_ = nullptr;
  }
  std::rethrow_exception(error);
}

/// Places every chunk of `chunks` on the caller, chunk by chunk through
/// every stage; `cancel` is checked before each chunk.
void place_all(Sweep& sweep, std::span<const Chunk> chunks,
               const CancelToken* cancel) {
  for (const Chunk& chunk : chunks) {
    check_cancel(cancel);
    sweep.place(chunk);
  }
}

/// Every chunk of `store` as it is published, on the caller.
void place_all(Sweep& sweep, const RawPatternStore& store,
               const CancelToken* cancel) {
  for (std::size_t k = 0;; ++k) {
    const RawPatternStore::Chunk* chunk = store.wait_chunk(k);
    if (chunk == nullptr) return;
    check_cancel(cancel);
    sweep.place(Chunk{chunk->data(), nullptr, chunk->size()});
  }
}

/// The count of a sweep that `place` feeds on the caller, as a ready
/// future holding the count or the exception; a non-null `span` names a
/// trace span over it (arg: the patterns placed).
template <typename Place>
[[nodiscard]] std::future<std::size_t> count_on_caller(
    int total_terminals, int bus_width, const char* span, const Place& place) {
  std::promise<std::size_t> done;
  try {
    std::optional<obs::ScopedSpan> scope;
    if (span != nullptr) scope.emplace(span);
    Sweep sweep(total_terminals, bus_width);
    place(sweep);
    sweep.count();
    if (scope) scope->set_arg(static_cast<std::int64_t>(sweep.patterns_in()));
    done.set_value(sweep.classes());
  } catch (...) {
    done.set_exception(std::current_exception());
  }
  return done.get_future();
}

/// 0, 1, ..., n-1: every pattern, in input order.
[[nodiscard]] std::vector<std::uint32_t> all_members(std::size_t n) {
  SITAM_CHECK_MSG(n <= UINT32_MAX, "compaction: too many patterns");
  std::vector<std::uint32_t> members(n);
  std::iota(members.begin(), members.end(), std::uint32_t{0});
  return members;
}

void check_members(std::span<const PatternView> patterns,
                   std::span<const std::uint32_t> members) {
  for (const std::uint32_t i : members) {
    if (i >= patterns.size()) {
      throw std::out_of_range("compact_greedy_count: member " +
                              std::to_string(i) + " outside the pattern set");
    }
  }
}

/// The materialized sweep of `members` of `patterns`, on the caller.
[[nodiscard]] std::vector<SiPattern> sweep_patterns(
    std::span<const PatternView> patterns,
    std::span<const std::uint32_t> members, int total_terminals,
    int bus_width) {
  Sweep sweep(total_terminals, bus_width);
  place_all(sweep, member_chunks(patterns, members), nullptr);
  sweep.count();
  return sweep.materialize();
}

}  // namespace

CompactionResult compact_greedy(std::span<const SiPattern> patterns,
                                int total_terminals, int bus_width,
                                const CompactionConfig& config) {
  if (config.threads < 1) {
    throw std::invalid_argument("compact_greedy: threads must be >= 1");
  }
  check_dimensions(total_terminals, bus_width);
  Stopwatch watch;
  CompactionResult result;
  result.stats.original_count = patterns.size();
  result.patterns =
      sweep_patterns(pattern_views(patterns), all_members(patterns.size()),
                     total_terminals, bus_width);
  result.stats.compacted_count = result.patterns.size();
  result.stats.seconds = watch.seconds();
  return result;
}

std::future<std::size_t> start_greedy_count(
    std::span<const PatternView> patterns,
    std::span<const std::uint32_t> members, int total_terminals,
    int bus_width, Executor& executor, const CancelToken* cancel,
    const char* span) {
  check_dimensions(total_terminals, bus_width);
  check_members(patterns, members);
  check_cancel(cancel);
  const std::vector<Chunk> chunks = member_chunks(patterns, members);
  if (executor.size() == 1) {
    return count_on_caller(total_terminals, bus_width, span,
                           [&](Sweep& sweep) {
                             place_all(sweep, chunks, cancel);
                           });
  }
  const auto pooled = std::make_shared<PooledSweep>(
      total_terminals, bus_width, executor, cancel, span);
  std::future<std::size_t> result = pooled->result();
  for (const Chunk& chunk : chunks) pooled->feed(chunk);
  pooled->close();
  return result;
}

std::future<std::size_t> start_greedy_count(const RawPatternStore& store,
                                            int total_terminals,
                                            int bus_width, Executor& executor,
                                            const CancelToken* cancel,
                                            const char* span) {
  check_dimensions(total_terminals, bus_width);
  check_cancel(cancel);
  if (executor.size() == 1) {
    return count_on_caller(total_terminals, bus_width, span,
                           [&](Sweep& sweep) {
                             place_all(sweep, store, cancel);
                           });
  }
  const auto pooled = std::make_shared<PooledSweep>(
      total_terminals, bus_width, executor, cancel, span);
  std::future<std::size_t> result = pooled->result();
  // The feeder waits on the writer, never on a stage.
  (void)executor.submit([pooled, &store] {
    for (std::size_t k = 0;; ++k) {
      const RawPatternStore::Chunk* chunk = store.wait_chunk(k);
      if (chunk == nullptr) break;
      pooled->feed(Chunk{chunk->data(), nullptr, chunk->size()});
    }
    pooled->close();
  });
  return result;
}

std::size_t compact_greedy_count(std::span<const PatternView> patterns,
                                 std::span<const std::uint32_t> members,
                                 int total_terminals, int bus_width) {
  Executor caller(1);
  return start_greedy_count(patterns, members, total_terminals, bus_width,
                            caller)
      .get();
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
  check_dimensions(total_terminals, bus_width);
  return count_on_caller(total_terminals, bus_width, nullptr,
                         [&](Sweep& sweep) {
                           place_all(sweep, store, cancel);
                         })
      .get();
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
  // Welsh-Powell order: densest (hardest to place) patterns first. The
  // density keys are computed once up front — not inside the comparator,
  // which would recompute them on every one of the O(n log n) comparisons.
  std::vector<int> density(patterns.size());
  for (std::size_t i = 0; i < patterns.size(); ++i) {
    density[i] = patterns[i].care_count() +
                 static_cast<int>(patterns[i].bus_bits().size());
  }
  std::vector<std::uint32_t> order = all_members(patterns.size());
  std::stable_sort(order.begin(), order.end(),
                   [&density](std::uint32_t a, std::uint32_t b) {
                     return density[a] > density[b];
                   });
  result.patterns = sweep_patterns(pattern_views(patterns), order,
                                   total_terminals, bus_width);

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
