// Vertical SI test compaction: pattern-count reduction (§3).
//
// Finding the minimum compacted set is the NP-complete clique covering
// problem on the pattern-compatibility graph. Every solver here runs on one
// first-fit kernel over compacted patterns ("classes"), held transposed in
// blocks of 64: per used terminal four masks — one per cared value,
// "classes incompatible with this value here" — plus a mask per bus line
// and per (line, driver) pair. Placing a candidate ORs one mask word per
// care bit (and `line & ~driver` per bus bit) into a block's conflict word;
// the lowest zero bit is its class, tested 64 classes at a time.
//
// The kernel is a chain of class-range stages. Stage s owns classes
// [s·S, (s+1)·S), S = kCompactionStageClasses (12 blocks of 64): it places
// each candidate in its first compatible class, opens its next class while
// it has one left, and once all its classes are open forwards each
// candidate it rejects, in order, to stage s + 1 (created by the first
// forward). A stage holds its blocks strip-major — per strip of four
// blocks one slab of rows, each row's four words contiguous — so a new row
// is an append, one pass over a candidate's rows fills four conflict words
// (stopping once all four are full), and a stage's masks stay within one
// core's L2: 0.8–0.9 MB with every terminal of p34392 or p93791 in use.
// S was chosen by timing stage widths of 4 to 24 blocks (DESIGN §9).
//
// The chain is exact. A candidate reaches stage s iff every class below
// s·S rejected it, and stage s sees those candidates in input order, so
// each stage's classes hold exactly what they hold in one serial pass: the
// class counts and the materialized patterns are those of the serial
// kernel, byte for byte, whatever runs the stages.
//
// Rows are numbered once per pattern set, by the one writer of a
// PatternRows, never by the kernel: a terminal gets care rows 4u..4u+3 (u
// its rank in first-use order over the whole set, the cares of each
// pattern written transitions first), and a bus line and each (line,
// driver) pair a bus row, the first time a pattern uses it. In the
// workload prepare that writer is the care-set index (sitest/group.cpp),
// which encodes each RawPatternStore chunk beside the draw, publishes row
// chunk k with the row counts numbered so far, and then frees pair chunk
// k (build_si_test_sets draws its span into a store and runs the same
// pass); compact_greedy and compact_first_fit encode their span the same
// way first. Every count of
// the set — the streamed i = 1 count and every group's member-list count —
// then reads the same rows. A forward between stages carries pattern ids
// and the row bound, not rows, so stage s reads a candidate's rows by id.
// A sweep of C classes over U used terminals, B used bus lines and P ≤ B·D
// distinct (line, driver) pairs holds ⌈C/64⌉ × (4·U + B + P) words
// (rounded up to whole strips), counted over the whole set's rows,
// independent of the declared terminal space, plus the forwarded ids in
// flight, each list freed once the next stage has placed it. Nothing reads
// a care list in order, so the encoder takes PatternViews of unsorted
// store patterns and of SiPatterns alike.
//
// Input arrives in chunks: a published PatternRows chunk, or one of
// ⌈n / kCompactionChunkPatterns⌉ equal slices of a member list. On
// a pool the unit of work is one (stage, chunk) task, started as a
// continuation once (stage, chunk − 1) and (stage − 1, chunk) are done, so
// stages run side by side on different chunks and no task waits on
// another; tasks synchronize once per (stage, chunk), never per pattern.
// On one thread the same tasks run in (chunk, stage) order.
//
//  * compact_greedy — the paper's heuristic: take the first uncompacted
//    pattern and merge every following compatible pattern into it, repeat.
//    Run as first-fit in index order, which is pointwise identical to the
//    sweep: class k of first-fit is exactly sweep round k (a pattern
//    reaches round k iff rounds 0..k-1 rejected it, and round k's
//    accumulator at pattern i is the union of its members before i). So
//    each candidate is placed once instead of re-probed every round.
//
//    start_greedy_count runs the same sweep over a member list of an
//    encoded set, or over every pattern of a PatternRows as its chunks are
//    published, as stage tasks on an Executor, and hands only the class
//    count to a CountDone: the 2-D compaction (sitest) needs nothing else,
//    and skips building the patterns. A count is a node of the caller's
//    job graph: it never throws, and count_into lands it in a TaskGroup,
//    whose wait() is the only way to wait for it. compact_greedy_count is
//    that count over a member list of a span, on the caller.
//
//  * compact_first_fit — a classical clique-cover approximation:
//    Welsh-Powell-style first-fit coloring of the conflict graph. The same
//    kernel, fed in descending density (care bits + bus bits, keys
//    precomputed once) instead of index order. Since unsorted first-fit is
//    the greedy sweep, the density ordering is what makes this a distinct
//    reference point; §3 reports that the two compact comparably.
//
// The byte-identity oracle for compact_greedy, the historical sparse sweep,
// lives with the tests (tests/compaction_oracle.h).
#pragma once

#include <array>
#include <bit>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "pattern/packed.h"
#include "pattern/pattern.h"
#include "pattern/raw_store.h"
#include "util/cancel.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace sitam {

/// Classes per stage of the first-fit kernel (12 blocks of 64; see the
/// header comment).
inline constexpr std::size_t kCompactionStageClasses = 12 * 64;
/// Most members per stage-0 chunk of a member-list count.
inline constexpr std::size_t kCompactionChunkPatterns = 4096;

struct CompactionStats {
  std::size_t original_count = 0;
  std::size_t compacted_count = 0;
  double seconds = 0.0;

  [[nodiscard]] double ratio() const {
    return compacted_count == 0
               ? 0.0
               : static_cast<double>(original_count) /
                     static_cast<double>(compacted_count);
  }
};

struct CompactionResult {
  std::vector<SiPattern> patterns;
  CompactionStats stats;
};

/// Knobs for the greedy sweep.
struct CompactionConfig {
  /// Accepted for API compatibility; must be >= 1. compact_greedy runs its
  /// stages on the caller, so this changes neither the output nor the
  /// speed. Kept only because bench/e2e still sets it (ROADMAP item 7 (g)).
  int threads = 1;
};

/// Paper's greedy sweep on the first-fit block kernel. `total_terminals`
/// and `bus_width` bound the ids (use TerminalSpace::total() and the bus
/// width; patterns with ids outside these ranges throw std::out_of_range,
/// checked in input order, each pattern's terminals before its bus lines).
/// Throws std::invalid_argument for negative dimensions or threads < 1.
[[nodiscard]] CompactionResult compact_greedy(
    std::span<const SiPattern> patterns, int total_terminals, int bus_width,
    const CompactionConfig& config = {});

/// The kernel rows of one pattern set (see the header comment), written
/// once by one thread and read by every compaction of the set. Every
/// `chunk_patterns` patterns form a chunk, published with the row counts
/// numbered so far; a published chunk never moves, so readers on other
/// threads read its rows (wait_chunk, record) while the writer encodes
/// the next one. The rank and line tables are allocated once and the pair
/// list only appends, so none of them moves either. After close() the
/// whole set reads by id.
class PatternRows {
 public:
  /// One published chunk: patterns [first, first + size), whose rows all
  /// lie below `care_rows` and `bus_rows`.
  struct Chunk {
    std::uint32_t first = 0;
    std::uint32_t size = 0;
    std::size_t care_rows = 0;
    std::size_t bus_rows = 0;
  };
  /// A (line, driver) pair and its bus row.
  struct PairRow {
    BusBit bit;
    std::uint32_t row = 0;
  };

  /// Rows of patterns over terminals [0, total_terminals) and bus lines
  /// [0, bus_width). Throws std::invalid_argument for negative dimensions
  /// or a chunk_patterns of 0 or UINT32_MAX and up.
  PatternRows(int total_terminals, int bus_width,
              std::size_t chunk_patterns = RawPatternStore::kChunkPatterns);

  PatternRows(const PatternRows&) = delete;
  PatternRows& operator=(const PatternRows&) = delete;

  // Writer side: one thread, before close().

  /// Checks `p`'s ids and appends its rows as the next pattern; publishes
  /// the open chunk when it is full. Throws std::out_of_range for the
  /// first terminal, then bus line, outside the declared space (adding
  /// nothing), std::logic_error after close().
  void add(const PatternView& p) {
    add(p, [](int) {}, [](const BusBit&) {});
  }
  /// The same, handing each id to the caller in the same pass once it is
  /// checked: `on_care(terminal)` per care, then `on_bus(bit)` per bus
  /// bit, in input order. Whatever they throw adds nothing either.
  template <typename OnCare, typename OnBus>
  void add(const PatternView& p, const OnCare& on_care, const OnBus& on_bus);
  /// Publishes the open chunk, if it holds any pattern, and marks the
  /// end of the set. Idempotent.
  void close();

  // Reader side.

  /// Blocks until chunk `k` is published (returns it) or the set is
  /// closed with fewer chunks (returns nullptr). Safe on any thread while
  /// the writer adds.
  [[nodiscard]] const Chunk* wait_chunk(std::size_t k) const;

  /// Pattern `id`'s record: its care-row count c, its bus-bit count b,
  /// its c care rows (transitions first), then b (line row, pair row)
  /// pairs. The pattern's chunk must be published to the calling thread
  /// (through wait_chunk, or close()).
  [[nodiscard]] const std::uint32_t* record(std::uint32_t id) const {
    return slot(id / chunk_patterns_).start[id % chunk_patterns_];
  }

  /// After close(): the number of patterns and rows, the terminal id per
  /// rank, and every (line, driver) pair with its row in (line, driver)
  /// order.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t care_rows() const;
  [[nodiscard]] std::size_t bus_rows() const;
  /// The words of every record (2 + c + 2·b per pattern).
  [[nodiscard]] std::size_t words() const;
  [[nodiscard]] const std::vector<int>& terminals() const;
  [[nodiscard]] std::vector<PairRow> sorted_pairs() const;

 private:
  /// Frees what calloc() allocated.
  struct Free {
    void operator()(void* p) const { std::free(p); }
  };
  /// A bus line's row + 1 and the head of its pair list + 1 (0: none).
  struct Line {
    std::uint32_t row = 0;
    std::uint32_t pairs = 0;
  };
  /// Words per row segment (64 KiB, as the store's): allocations below
  /// the size the allocator maps and unmaps, so they reuse freed heap.
  static constexpr std::size_t kSegmentWords = 16384;

  /// A chunk's rows: its records in segments that never move (a record
  /// never straddles two; a chunk's first segment is sized to about twice
  /// what the previous chunk held), and each pattern's record.
  struct Slot {
    Chunk chunk;
    std::vector<std::vector<std::uint32_t>> segments;
    std::vector<const std::uint32_t*> start;
  };
  /// A pair row, and the next pair of its line + 1 (0: the last).
  struct PairNode {
    PairRow pair;
    std::uint32_t next = 0;
  };

  /// Slot of chunk k: slot group j = bit_width(k + 1) − 1 holds the 2^j
  /// chunks from 2^j − 1 on, so a slot never moves once allocated and a
  /// reader indexes it without the lock.
  [[nodiscard]] const Slot& slot(std::size_t k) const {
    const auto j = static_cast<std::size_t>(std::bit_width(k + 1)) - 1;
    return slots_[j][k + 1 - (std::size_t{1} << j)];
  }
  [[nodiscard]] std::uint32_t add_rank(int terminal);
  [[nodiscard]] std::uint32_t pair_row(Line& line, const BusBit& bit);
  [[nodiscard]] std::uint32_t add_bus_row();
  /// Room for `words` more words of the open chunk, which it opens.
  [[nodiscard]] std::vector<std::uint32_t>& segment_for(std::size_t words);
  void publish();

  const int total_terminals_;
  const int bus_width_;
  const std::uint32_t chunk_patterns_;
  std::array<std::unique_ptr<Slot[]>, 33> slots_;
  // Writer only (readable after close()). The rank and line tables are
  // zero-filled by calloc() and allocated once: pages never written stay
  // unbacked, so a large declared space costs only the ids in use.
  std::unique_ptr<std::uint32_t[], Free> ranks_;  // terminal -> rank + 1
  std::unique_ptr<Line[], Free> lines_;
  std::deque<PairNode> pairs_;
  std::vector<int> terminals_;  // rank -> terminal id
  std::uint32_t bus_rows_ = 0;
  Slot* open_ = nullptr;         // the chunk being written, if any
  std::size_t first_segment_ = kSegmentWords;  // its first one's size
  std::size_t published_ = 0;  // chunks
  std::uint32_t next_ = 0;     // patterns added
  std::size_t words_ = 0;      // record words published
  bool sealed_ = false;
  mutable std::mutex mutex_;
  mutable std::condition_variable ready_;
  std::size_t ready_chunks_ = 0;  // guarded_by(mutex_)
  bool closed_ = false;           // guarded_by(mutex_)
};

template <typename OnCare, typename OnBus>
void PatternRows::add(const PatternView& p, const OnCare& on_care,
                      const OnBus& on_bus) {
  if (sealed_) throw std::logic_error("PatternRows: rows are closed");
  SITAM_CHECK_MSG(next_ < UINT32_MAX, "compaction: too many patterns");
  const auto cares = p.assignments();
  const auto bus = p.bus_bits();
  std::vector<std::uint32_t>& segment =
      segment_for(2 + cares.size() + 2 * bus.size());
  const std::size_t at = segment.size();
  segment.resize(at + 2 + cares.size() + 2 * bus.size());
  try {
    // Locals, so the stores into the record need not reload the members.
    const int total_terminals = total_terminals_;
    const std::uint32_t* const ranks = ranks_.get();
    std::uint32_t* const out = segment.data() + at;
    out[0] = static_cast<std::uint32_t>(cares.size());
    out[1] = static_cast<std::uint32_t>(bus.size());
    // Transitions fill from the front, stable values from the back:
    // transition rows reject most classes, so a probe can usually stop
    // reading a strip after them.
    std::size_t front = 2;
    std::size_t back = 2 + cares.size();
    for (const auto& [terminal, value] : cares) {
      if (terminal < 0 || terminal >= total_terminals) {
        throw_terminal_out_of_range(terminal);
      }
      on_care(terminal);
      std::uint32_t entry = ranks[terminal];
      if (entry == 0) entry = add_rank(terminal);
      const bool transition = is_transition(value);
      // Row 4u + v of rank u = entry - 1 and care value v = value - 1.
      out[transition ? front : back - 1] =
          4 * entry - 5 + static_cast<std::uint32_t>(value);
      front += transition ? 1 : 0;
      back -= transition ? 0 : 1;
    }
    std::uint32_t* row = out + 2 + cares.size();
    for (const BusBit& bit : bus) {
      if (bit.line < 0 || bit.line >= bus_width_) {
        throw_bus_out_of_range(bit.line);
      }
      on_bus(bit);
      Line& line = lines_[static_cast<std::size_t>(bit.line)];
      if (line.row == 0) line.row = add_bus_row() + 1;
      *row++ = line.row - 1;
      *row++ = pair_row(line, bit);
    }
    open_->start.push_back(out);
  } catch (...) {
    segment.resize(at);
    throw;
  }
  ++next_;
  if (open_->start.size() == chunk_patterns_) publish();
}

/// Receives a count: the class count, or (count 0) the first exception
/// the count raised. Must not throw.
using CountDone = std::function<void(std::size_t, std::exception_ptr)>;

/// The greedy sweep's compacted count over the `members` of closed
/// `rows` (ids, in sweep order), run as (stage, chunk) tasks on
/// `executor`: compact_greedy(those patterns, ...).patterns.size(),
/// without building the compacted patterns. The count is a node of a job
/// graph: it never throws, and reports to `done` exactly once, with the
/// count or the first exception (std::out_of_range for a member outside
/// `rows`; sitam::Cancelled, as `cancel` is checked first and before
/// every task; or what a task threw). `done` runs on the thread that
/// finishes the count (on one thread, before this returns), and nothing
/// of the count runs after it, so `done` may free `rows` and `members`.
/// A non-null `span` names a trace span over the whole count (arg: the
/// patterns placed), closed on the thread that finishes it; a count that
/// fails its checks opens none.
void start_greedy_count(const PatternRows& rows,
                        std::span<const std::uint32_t> members,
                        Executor& executor, const CancelToken* cancel,
                        const char* span, CountDone done);

/// The same over every pattern of `rows`, in id order. On a pool one task
/// waits for each chunk as `rows` publishes it and queues it for stage 0,
/// so this may start before `rows` is written, and the count ends once
/// `rows` is closed and every chunk is placed (or that task fails). On
/// one thread `rows` must be closed, or written by another thread.
void start_greedy_count(const PatternRows& rows, Executor& executor,
                        const CancelToken* cancel, const char* span,
                        CountDone done);

/// A CountDone that writes the count to `count` and ends a hold it takes
/// on `group` now: the count as one node of `group`, whose wait() returns
/// once it has landed and rethrows its error.
[[nodiscard]] CountDone count_into(TaskGroup& group, std::size_t& count);

/// The compacted count of the `members` of `patterns` (indices, in sweep
/// order) on the caller: the members are encoded, in member order, into
/// rows of their own. Same dimension and id checks as compact_greedy, in
/// member order; a member outside `patterns` throws std::out_of_range.
[[nodiscard]] std::size_t compact_greedy_count(
    std::span<const SiPattern> patterns,
    std::span<const std::uint32_t> members, int total_terminals,
    int bus_width);

/// First-fit clique-cover approximation (reference quality bar). Same
/// dimension and id checks as compact_greedy.
[[nodiscard]] CompactionResult compact_first_fit(
    std::span<const SiPattern> patterns, int total_terminals, int bus_width);

/// Verifies that `compacted` is a sound compaction of `original`: every
/// original pattern must be *covered by* (i.e. compatible with and contained
/// in) at least one compacted pattern. Returns the index of the first
/// uncovered original pattern, or -1 if all are covered. Runs on packed
/// subset checks with summary pruning. Used by tests and the compaction
/// study bench.
[[nodiscard]] std::ptrdiff_t first_uncovered(
    std::span<const SiPattern> original,
    std::span<const SiPattern> compacted);

}  // namespace sitam
