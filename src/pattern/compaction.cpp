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

void check_dimensions(int total_terminals, int bus_width) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_greedy: negative dimensions");
  }
}

}  // namespace

PatternRows::PatternRows(int total_terminals, int bus_width,
                         std::size_t chunk_patterns)
    : total_terminals_(total_terminals),
      bus_width_(bus_width),
      chunk_patterns_(static_cast<std::uint32_t>(chunk_patterns)) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("PatternRows: negative dimensions");
  }
  if (chunk_patterns == 0 || chunk_patterns >= UINT32_MAX) {
    throw std::invalid_argument("PatternRows: chunk size out of range");
  }
  // One entry more, so an empty space still gets a table.
  ranks_.reset(static_cast<std::uint32_t*>(std::calloc(
      static_cast<std::size_t>(total_terminals) + 1, sizeof(std::uint32_t))));
  lines_.reset(static_cast<Line*>(
      std::calloc(static_cast<std::size_t>(bus_width) + 1, sizeof(Line))));
  if (!ranks_ || !lines_) throw std::bad_alloc();
}

std::uint32_t PatternRows::add_rank(int terminal) {
  SITAM_CHECK_MSG(4 * terminals_.size() + 4 <= UINT32_MAX,
                  "compaction: too many kernel rows");
  terminals_.push_back(terminal);
  const auto entry = static_cast<std::uint32_t>(terminals_.size());
  ranks_[static_cast<std::size_t>(terminal)] = entry;
  return entry;
}

std::uint32_t PatternRows::add_bus_row() {
  SITAM_CHECK_MSG(bus_rows_ < UINT32_MAX, "compaction: too many kernel rows");
  return bus_rows_++;
}

std::uint32_t PatternRows::pair_row(Line& line, const BusBit& bit) {
  std::uint32_t* link = &line.pairs;
  while (*link != 0) {
    PairNode& node = pairs_[*link - 1];
    if (node.pair.bit.driver_core == bit.driver_core) return node.pair.row;
    link = &node.next;
  }
  pairs_.push_back(PairNode{PairRow{bit, add_bus_row()}, 0});
  *link = static_cast<std::uint32_t>(pairs_.size());
  return pairs_.back().pair.row;
}

std::vector<std::uint32_t>& PatternRows::segment_for(std::size_t words) {
  if (open_ == nullptr) {
    const std::size_t k = published_;
    const auto j = static_cast<std::size_t>(std::bit_width(k + 1)) - 1;
    if (k + 1 == std::size_t{1} << j) {
      slots_[j] = std::make_unique<Slot[]>(std::size_t{1} << j);
    }
    open_ = &slots_[j][k + 1 - (std::size_t{1} << j)];
    open_->start.reserve(std::min<std::size_t>(
        chunk_patterns_, kCompactionChunkPatterns));
  }
  std::vector<std::vector<std::uint32_t>>& segments = open_->segments;
  if (segments.empty() ||
      segments.back().capacity() - segments.back().size() < words) {
    segments.emplace_back().reserve(std::max(
        segments.empty() ? first_segment_ : kSegmentWords, words));
  }
  return segments.back();
}

void PatternRows::publish() {
  std::size_t words = 0;
  for (const std::vector<std::uint32_t>& segment : open_->segments) {
    words += segment.size();
  }
  first_segment_ = std::clamp<std::size_t>(2 * words, 64, kSegmentWords);
  words_ += words;
  const auto size = static_cast<std::uint32_t>(open_->start.size());
  open_->chunk = Chunk{next_ - size, size, 4 * terminals_.size(), bus_rows_};
  open_ = nullptr;
  ++published_;
  {
    const std::lock_guard lock(mutex_);
    ready_chunks_ = published_;
  }
  ready_.notify_all();
}

void PatternRows::close() {
  if (sealed_) return;
  sealed_ = true;
  if (open_ != nullptr && !open_->start.empty()) publish();
  {
    const std::lock_guard lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

const PatternRows::Chunk* PatternRows::wait_chunk(std::size_t k) const {
  std::unique_lock lock(mutex_);
  ready_.wait(lock, [&] { return k < ready_chunks_ || closed_; });
  return k < ready_chunks_ ? &slot(k).chunk : nullptr;
}

std::size_t PatternRows::size() const {
  const std::lock_guard lock(mutex_);
  SITAM_CHECK_MSG(closed_, "PatternRows: read before close()");
  return next_;
}

std::size_t PatternRows::care_rows() const {
  const std::lock_guard lock(mutex_);
  SITAM_CHECK_MSG(closed_, "PatternRows: read before close()");
  return 4 * terminals_.size();
}

std::size_t PatternRows::words() const {
  const std::lock_guard lock(mutex_);
  SITAM_CHECK_MSG(closed_, "PatternRows: read before close()");
  return words_;
}

std::size_t PatternRows::bus_rows() const {
  const std::lock_guard lock(mutex_);
  SITAM_CHECK_MSG(closed_, "PatternRows: read before close()");
  return bus_rows_;
}

const std::vector<int>& PatternRows::terminals() const {
  const std::lock_guard lock(mutex_);
  SITAM_CHECK_MSG(closed_, "PatternRows: read before close()");
  return terminals_;
}

std::vector<PatternRows::PairRow> PatternRows::sorted_pairs() const {
  {
    const std::lock_guard lock(mutex_);
    SITAM_CHECK_MSG(closed_, "PatternRows: read before close()");
  }
  std::vector<PairRow> pairs;
  pairs.reserve(pairs_.size());
  for (const PairNode& node : pairs_) pairs.push_back(node.pair);
  std::sort(pairs.begin(), pairs.end(),
            [](const PairRow& a, const PairRow& b) {
              return a.bit.line != b.bit.line
                         ? a.bit.line < b.bit.line
                         : a.bit.driver_core < b.bit.driver_core;
            });
  return pairs;
}

namespace {

/// Blocks probed together: a row's words for one strip are contiguous.
constexpr std::size_t kStrip = 4;
/// 64-class blocks per stage. Twelve (three strips) keep a stage's masks
/// under 1 MB on the p34392/p93791 sets, inside one core's L2; DESIGN §9
/// has the timing that chose it.
constexpr std::size_t kStageClasses = kCompactionStageClasses;
constexpr std::size_t kStageBlocks = kStageClasses / 64;
static_assert(kStageClasses % (64 * kStrip) == 0);

/// Patterns per stage-0 chunk when the input is a member list (published
/// rows bring their own chunks).
constexpr std::size_t kChunkPatterns = kCompactionChunkPatterns;

/// Candidates on their way into a stage: their pattern ids, in sweep
/// order, and the row counts of the set when they were written; no row of
/// theirs lies at or beyond `care_rows` / `bus_rows`.
struct Forward {
  std::size_t care_rows = 0;
  std::size_t bus_rows = 0;
  std::vector<std::uint32_t> ids;
};

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

  /// Places every candidate of `in`, reading its rows from `rows`, in
  /// order; appends the ids of the ones it rejects to `out`.
  void place_all(const PatternRows& rows, const Forward& in, Forward& out);

  [[nodiscard]] std::size_t classes() const { return classes_; }
  /// Candidates given to place_all(), and the ones it forwarded.
  [[nodiscard]] std::uint64_t candidates() const { return candidates_; }
  [[nodiscard]] std::uint64_t forwarded() const { return forwarded_; }
  /// Blocks tested over all place() calls.
  [[nodiscard]] std::uint64_t block_probes() const { return block_probes_; }

  /// Builds each class's pattern into out[0, classes()). A class cares
  /// about terminal u iff some row 4u + v holds its bit, and its value is
  /// the one row that lacks it. `by_id` lists ranks in ascending terminal
  /// order and `pairs` the pairs in (line, driver) order, so every
  /// set()/set_bus() is an append.
  void materialize(std::span<const std::uint32_t> by_id,
                   const std::vector<int>& terminals,
                   std::span<const PatternRows::PairRow> pairs,
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
  std::uint64_t candidates_ = 0;
  std::uint64_t forwarded_ = 0;
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

void Stage::place_all(const PatternRows& rows, const Forward& in,
                      Forward& out) {
  grow(in.care_rows, in.bus_rows);
  out.care_rows = in.care_rows;
  out.bus_rows = in.bus_rows;
  const std::size_t before = out.ids.size();
  for (const std::uint32_t id : in.ids) {
    const std::uint32_t* const at = rows.record(id);
    const std::size_t care = at[0];
    if (!place({at + 2, care}, {at + 2 + care, 2 * std::size_t{at[1]}})) {
      out.ids.push_back(id);
    }
  }
  candidates_ += in.ids.size();
  forwarded_ += out.ids.size() - before;
}

void Stage::materialize(std::span<const std::uint32_t> by_id,
                        const std::vector<int>& terminals,
                        std::span<const PatternRows::PairRow> pairs,
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
    for (const PatternRows::PairRow& pair : pairs) {
      if (pair.row >= bus_rows_) continue;
      for (std::uint64_t drives = strip.bus[kStrip * pair.row + j];
           drives != 0; drives &= drives - 1) {
        block[std::countr_zero(drives)].set_bus(pair.bit.line,
                                                pair.bit.driver_core);
      }
    }
  }
}

/// The greedy sweep over the rows of one pattern set, as a chain of
/// stages: each stage forwards the ids it rejects once it is full.
/// First-fit in sweep order *is* the sweep: class k holds exactly what
/// round k would absorb, because a pattern reaches round k's sweep iff
/// rounds 0..k-1 rejected it, and each round's accumulator at pattern i is
/// the union of its members before i. Staging keeps that, since a stage
/// sees exactly the candidates every lower class rejected, in order.
///
/// place() runs one chunk through every stage on the caller. A pool runs
/// the same work as (stage, chunk) tasks (PooledSweep): task (s, c) is
/// stage(s).place_all() on chunk c's candidates, each stage's tasks in
/// chunk order.
class Sweep {
 public:
  explicit Sweep(const PatternRows& rows) : rows_(rows) {
    stages_.emplace_back();
  }

  /// Stage s. Its address is stable while later stages are added.
  [[nodiscard]] Stage& stage(std::size_t s) { return stages_[s]; }
  /// Appends the next stage.
  void add_stage() { stages_.emplace_back(); }
  [[nodiscard]] const PatternRows& rows() const { return rows_; }

  /// Task (0, c), then (1, c), ... while candidates are forwarded, on the
  /// caller.
  void place(const Forward& in);

  [[nodiscard]] std::size_t classes() const;
  [[nodiscard]] std::size_t patterns_in() const {
    return stages_.front().candidates();
  }
  [[nodiscard]] std::vector<SiPattern> materialize() const;
  /// Records the sweep's counters; call once every chunk is placed.
  void count() const;

 private:
  const PatternRows& rows_;
  std::deque<Stage> stages_;
};

void Sweep::place(const Forward& in) {
  Forward rows;
  {
    SITAM_TRACE_SPAN_ARG("pattern.compaction.stage", 0);
    stages_.front().place_all(rows_, in, rows);
  }
  for (std::size_t s = 1; !rows.ids.empty(); ++s) {
    if (s == stages_.size()) add_stage();
    SITAM_TRACE_SPAN_ARG("pattern.compaction.stage",
                         static_cast<std::int64_t>(s));
    Forward next;
    stages_[s].place_all(rows_, rows, next);
    rows = std::move(next);
  }
}

std::size_t Sweep::classes() const {
  std::size_t classes = 0;
  for (const Stage& stage : stages_) classes += stage.classes();
  return classes;
}

std::vector<SiPattern> Sweep::materialize() const {
  const std::vector<int>& terminals = rows_.terminals();
  std::vector<std::uint32_t> by_id(terminals.size());
  std::iota(by_id.begin(), by_id.end(), std::uint32_t{0});
  std::sort(by_id.begin(), by_id.end(),
            [&terminals](std::uint32_t a, std::uint32_t b) {
              return terminals[a] < terminals[b];
            });
  const std::vector<PatternRows::PairRow> pairs = rows_.sorted_pairs();
  std::vector<SiPattern> out(classes());
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    stages_[s].materialize(by_id, terminals, pairs,
                           out.data() + s * kStageClasses);
  }
  return out;
}

void Sweep::count() const {
  std::uint64_t probes = 0;
  std::uint64_t forwarded = 0;
  for (const Stage& stage : stages_) {
    probes += stage.block_probes();
    forwarded += stage.forwarded();
  }
  // One class per sweep round; the probe count shows how far candidates
  // scan before they find their class, and the forward count what the
  // stage boundaries hand on.
  SITAM_COUNTER("pattern.compaction.rounds", classes());
  SITAM_COUNTER("pattern.compaction.block_probes", probes);
  SITAM_COUNTER("pattern.compaction.forwarded", forwarded);
  SITAM_COUNTER("pattern.compaction.patterns_in", patterns_in());
  SITAM_COUNTER("pattern.compaction.patterns_out", classes());
  SITAM_COUNTER("pattern.compaction.stages", stages_.size());
}

/// `members` of closed `rows` as stage-0 inputs: ⌈size / kChunkPatterns⌉
/// equal slices.
[[nodiscard]] std::vector<Forward> member_chunks(
    const PatternRows& rows, std::span<const std::uint32_t> members) {
  std::vector<Forward> chunks;
  const std::size_t n = members.size();
  const std::size_t count = (n + kChunkPatterns - 1) / kChunkPatterns;
  for (std::size_t c = 0; c < count; ++c) {
    const auto begin = members.begin() + static_cast<std::ptrdiff_t>(n * c / count);
    const auto end =
        members.begin() + static_cast<std::ptrdiff_t>(n * (c + 1) / count);
    chunks.push_back(Forward{rows.care_rows(), rows.bus_rows(), {begin, end}});
  }
  return chunks;
}

/// Published chunk `chunk` as a stage-0 input: every id it holds.
[[nodiscard]] Forward chunk_input(const PatternRows::Chunk& chunk) {
  Forward in{chunk.care_rows, chunk.bus_rows,
             std::vector<std::uint32_t>(chunk.size)};
  std::iota(in.ids.begin(), in.ids.end(), chunk.first);
  return in;
}

/// A Sweep run as (stage, chunk) tasks on a pool. Stage s's queued inputs
/// run one task at a time in chunk order: a task for stage s is started
/// when an input reaches an idle stage, and when a task ends with more
/// queued. Each task takes its input and puts its forward list under the
/// mutex, so the tasks synchronize once per (stage, chunk). The tasks
/// share ownership; the one that leaves nothing running after close()
/// hands `then` the count or the exception. After a task throws, queued
/// inputs are dropped and no task is started, so the exception reaches
/// `then` once the tasks already running return. It is moved out under
/// the mutex, so no other worker holds the exception object once `then`
/// passes it on (one shared object would be freed by whichever thread
/// drops it last, ordered only by the C++ runtime's uninstrumented
/// reference counts: a ThreadSanitizer race).
class PooledSweep : public std::enable_shared_from_this<PooledSweep> {
 public:
  PooledSweep(const PatternRows& rows, Executor& executor,
              const CancelToken* cancel, const char* span, CountDone then)
      : sweep_(rows),
        executor_(executor),
        cancel_(cancel),
        then_(std::move(then)),
        lanes_(1) {
    if (span != nullptr) span_.emplace(span);
  }

  /// Queues `in` for stage 0. Dropped after a failure.
  void feed(Forward in);
  /// No more chunks; a non-null `error` fails the sweep if it is the
  /// first.
  void close(std::exception_ptr error = nullptr);

 private:
  /// The queued inputs of one stage.
  struct Lane {
    std::deque<Forward> inbox;
    bool busy = false;  ///< A task of this stage is queued or running.
  };

  /// Task (s, next queued chunk).
  void run(std::size_t s);
  /// Starts task s; a failed start fails the sweep.
  void start(std::size_t s);
  /// Marks stage s idle and drops its queued inputs; true when that
  /// leaves nothing running after close(). Caller holds mutex_.
  [[nodiscard]] bool release_locked(std::size_t s);
  /// Closes the span, records the counters and hands `then_` the count
  /// or the exception; once, after the last task.
  void finish();

  Sweep sweep_;
  Executor& executor_;
  const CancelToken* cancel_;
  CountDone then_;
  std::optional<obs::ScopedSpan> span_;
  std::mutex mutex_;
  std::deque<Lane> lanes_;         // guarded_by(mutex_)
  std::size_t busy_ = 0;           // guarded_by(mutex_): lanes busy
  bool closed_ = false;            // guarded_by(mutex_)
  std::exception_ptr error_;       // guarded_by(mutex_)
};

void PooledSweep::start(std::size_t s) {
  bool last = false;
  try {
    executor_.run(JobPriority::kNormal,
                  [self = shared_from_this(), s] { self->run(s); });
  } catch (...) {
    const std::lock_guard lock(mutex_);
    if (!error_) error_ = std::current_exception();
    last = release_locked(s);
  }
  if (last) finish();
}

bool PooledSweep::release_locked(std::size_t s) {
  lanes_[s].inbox.clear();
  lanes_[s].busy = false;
  --busy_;
  return busy_ == 0 && closed_;
}

void PooledSweep::feed(Forward in) {
  {
    const std::lock_guard lock(mutex_);
    if (error_ || closed_) return;
    Lane& first = lanes_.front();
    first.inbox.push_back(std::move(in));
    if (first.busy) return;
    first.busy = true;
    ++busy_;
  }
  start(0);
}

void PooledSweep::close(std::exception_ptr error) {
  {
    const std::lock_guard lock(mutex_);
    if (error && !error_) error_ = std::move(error);
    error = nullptr;  // the sweep's copy is the only one left here
    closed_ = true;
    if (busy_ > 0) return;
  }
  finish();
}

void PooledSweep::run(std::size_t s) {
  Forward in;
  Stage* stage = nullptr;
  bool failed = false;
  {
    const std::lock_guard lock(mutex_);
    in = std::move(lanes_[s].inbox.front());
    lanes_[s].inbox.pop_front();
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
      stage->place_all(sweep_.rows(), in, out);
    } catch (...) {
      error = std::current_exception();
    }
  }
  in = {};  // consumed: free it before the next task can allocate

  std::size_t next[2];
  std::size_t starts = 0;
  bool last = false;
  {
    const std::lock_guard lock(mutex_);
    if (error && !error_) error_ = error;
    error = nullptr;  // the sweep's copy is the only one left here
    if (!error_ && !out.ids.empty()) {
      if (lanes_.size() == s + 1) {
        lanes_.emplace_back();
        sweep_.add_stage();
      }
      Lane& after = lanes_[s + 1];
      after.inbox.push_back(std::move(out));
      if (!after.busy) {
        after.busy = true;
        ++busy_;
        next[starts++] = s + 1;
      }
    }
    if (!lanes_[s].inbox.empty() && !error_) {
      next[starts++] = s;
    } else {
      last = release_locked(s);
    }
  }
  for (std::size_t k = 0; k < starts; ++k) start(next[k]);
  if (last) finish();
}

void PooledSweep::finish() {
  std::exception_ptr error;
  {
    const std::lock_guard lock(mutex_);
    error = std::exchange(error_, nullptr);
  }
  // Nothing runs any more: the sweep is this thread's to read.
  if (!error) {
    sweep_.count();
    if (span_) span_->set_arg(static_cast<std::int64_t>(sweep_.patterns_in()));
  }
  span_.reset();
  then_(error ? 0 : sweep_.classes(), std::move(error));
}

/// The count of a sweep over `rows` that `place` feeds on the caller,
/// handed to `done` with the count or the exception; a non-null `span`
/// names a trace span over it (arg: the patterns placed).
template <typename Place>
void count_on_caller(const PatternRows& rows, const char* span,
                     const Place& place, const CountDone& done) {
  std::size_t count = 0;
  std::exception_ptr error;
  try {
    std::optional<obs::ScopedSpan> scope;
    if (span != nullptr) scope.emplace(span);
    Sweep sweep(rows);
    place(sweep);
    sweep.count();
    if (scope) scope->set_arg(static_cast<std::int64_t>(sweep.patterns_in()));
    count = sweep.classes();
  } catch (...) {
    error = std::current_exception();
  }
  done(count, std::move(error));
}

/// 0, 1, ..., n-1: every pattern, in input order.
[[nodiscard]] std::vector<std::uint32_t> all_members(std::size_t n) {
  SITAM_CHECK_MSG(n <= UINT32_MAX, "compaction: too many patterns");
  std::vector<std::uint32_t> members(n);
  std::iota(members.begin(), members.end(), std::uint32_t{0});
  return members;
}

void check_members(std::size_t size, std::span<const std::uint32_t> members) {
  for (const std::uint32_t i : members) {
    if (i >= size) {
      throw std::out_of_range("compact_greedy_count: member " +
                              std::to_string(i) + " outside the pattern set");
    }
  }
}

/// Encodes `patterns` into `rows`, in order, and closes them.
void encode(std::span<const PatternView> patterns, PatternRows& rows) {
  for (const PatternView& p : patterns) rows.add(p);
  rows.close();
  SITAM_COUNTER("pattern.rows.words", rows.words());
}

/// The materialized sweep of `members` of `patterns`, encoded in input
/// order (so ids are checked in input order), on the caller.
[[nodiscard]] std::vector<SiPattern> sweep_patterns(
    std::span<const SiPattern> patterns,
    std::span<const std::uint32_t> members, int total_terminals,
    int bus_width) {
  PatternRows rows(total_terminals, bus_width);
  encode(pattern_views(patterns), rows);
  Sweep sweep(rows);
  for (const Forward& chunk : member_chunks(rows, members)) {
    sweep.place(chunk);
  }
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
  result.patterns = sweep_patterns(patterns, all_members(patterns.size()),
                                   total_terminals, bus_width);
  result.stats.compacted_count = result.patterns.size();
  result.stats.seconds = watch.seconds();
  return result;
}

void start_greedy_count(const PatternRows& rows,
                        std::span<const std::uint32_t> members,
                        Executor& executor, const CancelToken* cancel,
                        const char* span, CountDone done) {
  std::vector<Forward> chunks;
  std::exception_ptr failed;
  try {
    check_members(rows.size(), members);
    check_cancel(cancel);
    chunks = member_chunks(rows, members);
  } catch (...) {
    failed = std::current_exception();
  }
  // Outside the handler, so this thread holds no other reference.
  if (failed) {
    done(0, std::move(failed));
    return;
  }
  if (executor.size() == 1) {
    count_on_caller(
        rows, span,
        [&](Sweep& sweep) {
          for (const Forward& chunk : chunks) {
            check_cancel(cancel);
            sweep.place(chunk);
          }
        },
        done);
    return;
  }
  const auto pooled = std::make_shared<PooledSweep>(rows, executor, cancel,
                                                    span, std::move(done));
  for (Forward& chunk : chunks) pooled->feed(std::move(chunk));
  pooled->close();
}

void start_greedy_count(const PatternRows& rows, Executor& executor,
                        const CancelToken* cancel, const char* span,
                        CountDone done) {
  if (cancel != nullptr && cancel->requested()) {
    done(0, std::make_exception_ptr(Cancelled()));
    return;
  }
  if (executor.size() == 1) {
    count_on_caller(
        rows, span,
        [&](Sweep& sweep) {
          for (std::size_t k = 0;; ++k) {
            const PatternRows::Chunk* chunk = rows.wait_chunk(k);
            if (chunk == nullptr) return;
            check_cancel(cancel);
            sweep.place(chunk_input(*chunk));
          }
        },
        done);
    return;
  }
  const auto pooled = std::make_shared<PooledSweep>(rows, executor, cancel,
                                                    span, std::move(done));
  // The feeder waits on the writer, never on a stage. Its own exception
  // (or a failed start) ends the count like a stage task's.
  std::exception_ptr failed;
  try {
    executor.run(JobPriority::kNormal, [pooled, &rows] {
      std::exception_ptr error;
      try {
        for (std::size_t k = 0;; ++k) {
          const PatternRows::Chunk* chunk = rows.wait_chunk(k);
          if (chunk == nullptr) break;
          pooled->feed(chunk_input(*chunk));
        }
      } catch (...) {
        error = std::current_exception();
      }
      pooled->close(std::move(error));
    });
  } catch (...) {
    failed = std::current_exception();
  }
  if (failed) pooled->close(std::move(failed));
}

CountDone count_into(TaskGroup& group, std::size_t& count) {
  group.hold();
  return [&group, &count](std::size_t classes, std::exception_ptr error) {
    count = classes;
    group.release(std::move(error));
  };
}

std::size_t compact_greedy_count(std::span<const SiPattern> patterns,
                                 std::span<const std::uint32_t> members,
                                 int total_terminals, int bus_width) {
  check_dimensions(total_terminals, bus_width);
  check_members(patterns.size(), members);
  PatternRows rows(total_terminals, bus_width);
  for (const std::uint32_t i : members) rows.add(patterns[i]);
  rows.close();
  SITAM_COUNTER("pattern.rows.words", rows.words());
  Executor caller(1);
  TaskGroup group(caller);
  std::size_t count = 0;
  start_greedy_count(rows, caller, nullptr, nullptr,
                     count_into(group, count));
  group.wait();
  return count;
}

CompactionResult compact_first_fit(std::span<const SiPattern> patterns,
                                   int total_terminals, int bus_width) {
  if (total_terminals < 0 || bus_width < 0) {
    throw std::invalid_argument("compact_first_fit: negative dimensions");
  }
  Stopwatch watch;
  CompactionResult result;
  result.stats.original_count = patterns.size();

  // Welsh-Powell order: densest (hardest to place) patterns first. The
  // density keys are computed once up front — not inside the comparator,
  // which would recompute them on every one of the O(n log n) comparisons.
  // The patterns are encoded in input order, so a bad id throws the same
  // error whichever order they are then placed in.
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
  result.patterns =
      sweep_patterns(patterns, order, total_terminals, bus_width);

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
