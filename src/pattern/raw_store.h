// Append-only, chunked store of raw SI patterns, and the read-only pattern
// view the care-set index and the compaction kernel read.
//
// A raw §5 set is written once, read once in order, and never mutated, so
// it needs neither SiPattern's two heap lists per pattern nor sorted care
// lists: nothing that reads a raw set walks a care list in order. The
// store appends every pattern's (terminal, value) cares and bus bits to
// fixed-size segments (a pattern never straddles two), so nothing is ever
// copied or regrown and the only slack is the unfilled tail of each
// chunk's last segment. Segments are at most 64 KiB, below the size at
// which the allocator maps and unmaps blocks, so a store's memory is
// recycled by the next one instead of being held as free space of a
// larger heap.
//
// One writer appends patterns; every `chunk_patterns` patterns form a
// chunk, published with one view per pattern and owning the segments its
// patterns were written to. Published chunks never move, so a reader on
// another thread can walk chunk k (wait_chunk) while the writer fills
// chunk k + 1. In the workload prepare the one reader is the care-set
// index, which also numbers each pattern's kernel rows (PatternRows,
// pattern/compaction.h): once it has read chunk k and published row chunk
// k it frees pair chunk k (release), so a raw set's pairs and its rows
// never both hold the whole set. Before any release, and after close(),
// the whole store also reads by index.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "pattern/pattern.h"

namespace sitam {

/// Read-only view of one pattern's cares and bus postfix. Borrowed: the
/// SiPattern or store it points into must outlive it. Cares from a store
/// are in draw order, not sorted by terminal.
class PatternView {
 public:
  PatternView() = default;
  PatternView(std::span<const std::pair<int, SigValue>> assignments,
              std::span<const BusBit> bus_bits)
      : cares_(assignments.data()),
        bus_(bus_bits.data()),
        care_count_(static_cast<std::uint32_t>(assignments.size())),
        bus_count_(static_cast<std::uint32_t>(bus_bits.size())) {}
  /// Views `pattern` (implicit, so a SiPattern reads as a view).
  PatternView(const SiPattern& pattern)
      : PatternView(pattern.assignments(), pattern.bus_bits()) {}

  [[nodiscard]] std::span<const std::pair<int, SigValue>> assignments()
      const {
    return {cares_, care_count_};
  }
  [[nodiscard]] std::span<const BusBit> bus_bits() const {
    return {bus_, bus_count_};
  }

 private:
  const std::pair<int, SigValue>* cares_ = nullptr;
  const BusBit* bus_ = nullptr;
  std::uint32_t care_count_ = 0;
  std::uint32_t bus_count_ = 0;
};

/// One view per pattern of `patterns`, in order.
[[nodiscard]] std::vector<PatternView> pattern_views(
    std::span<const SiPattern> patterns);

class RawPatternStore {
 public:
  /// Patterns per published chunk in the workload prepare. A quarter of
  /// the member-list chunk of the compaction kernel: the store's pool
  /// worker holds the chunks its reader has not released yet, about
  /// three, and at 4 096 patterns a p93791 N_r = 10 000 prepare held
  /// 4–5 MB more peak RSS than at 1 024.
  static constexpr std::size_t kChunkPatterns = 1024;
  /// Entries per storage segment (64 KiB of cares or of bus bits); a
  /// longer pattern gets a segment of its own size, and a chunk's first
  /// segment is sized to about twice what the previous chunk held, so
  /// small chunks keep small segments.
  static constexpr std::size_t kSegmentEntries = 8192;

  /// One published chunk: the views of patterns k * chunk_patterns()
  /// onwards, in store order.
  using Chunk = std::vector<PatternView>;

  /// Throws std::invalid_argument for chunk_patterns == 0.
  explicit RawPatternStore(std::size_t chunk_patterns = kChunkPatterns);

  RawPatternStore(const RawPatternStore&) = delete;
  RawPatternStore& operator=(const RawPatternStore&) = delete;

  // Writer side: one thread, before close().

  /// Adds a care entry to the pattern being written.
  void add_care(int terminal, SigValue value) {
    cares_.push({terminal, value});
  }
  /// Adds a bus bit to the pattern being written.
  void add_bus(BusBit bit) { bus_.push(bit); }
  /// Ends the pattern being written; publishes the open chunk when it is
  /// full. Throws std::logic_error after close().
  void end_pattern();
  /// Publishes the open chunk, if it holds any pattern, and marks the end
  /// of the store. Cares and bus bits of an unfinished pattern are
  /// dropped. Idempotent.
  void close();

  // Reader side.

  /// Blocks until chunk `k` is published (returns it) or the store is
  /// closed with fewer chunks (returns nullptr). Safe on any thread while
  /// the writer appends; the chunk stays valid until release(k).
  [[nodiscard]] const Chunk* wait_chunk(std::size_t k) const;

  /// Frees published chunk `k`'s views and entries, for a reader that is
  /// done with them: while the store is open the writer reuses its
  /// full-size segments for later chunks, so a store read as it is
  /// written holds only the chunks not yet released; once it is closed
  /// they go back to the allocator. The chunk reads as empty afterwards, and views() may no
  /// longer be called. Safe while the writer appends.
  void release(std::size_t k);

  /// After close(): the number of patterns, and (before any release) one
  /// view per pattern in store order.
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<PatternView> views() const;

  [[nodiscard]] std::size_t chunk_patterns() const { return chunk_patterns_; }

 private:
  /// Fixed-size segments holding one kind of entry, each a vector that
  /// never outgrows the capacity it was reserved with, so its entries
  /// never move. The pattern being written is the tail [begin_, end) of
  /// the last segment; when it does not fit, it moves to a fresh segment,
  /// so it is always contiguous.
  template <typename T>
  class Segments {
   public:
    using List = std::vector<std::vector<T>>;

    void push(const T& entry) {
      if (segments_.empty() ||
          segments_.back().size() == segments_.back().capacity()) {
        grow();
      }
      segments_.back().push_back(entry);
    }
    /// Ends the pattern being written and returns its entries.
    [[nodiscard]] std::span<const T> end_pattern() {
      if (segments_.empty()) return {};
      const std::span<const T> last = segments_.back();
      const std::span<const T> entries = last.subspan(begin_);
      begin_ = last.size();
      return entries;
    }
    /// Drops the entries of the pattern being written.
    void drop_pattern() {
      if (!segments_.empty()) segments_.back().resize(begin_);
    }
    /// Hands over every segment, between patterns: the entries of the
    /// chunk just ended. The next chunk starts a fresh segment.
    [[nodiscard]] List take() {
      std::size_t entries = 0;
      for (const std::vector<T>& segment : segments_) entries += segment.size();
      first_capacity_ = std::clamp<std::size_t>(2 * entries, 64, kSegmentEntries);
      begin_ = 0;
      return std::exchange(segments_, {});
    }
    /// Adds emptied full-size segments for grow() to reuse.
    void recycle(List&& spare) {
      for (std::vector<T>& segment : spare) spare_.push_back(std::move(segment));
    }

   private:
    void grow() {
      const std::size_t pending =
          segments_.empty() ? 0 : segments_.back().size() - begin_;
      const std::size_t capacity = std::max(
          segments_.empty() ? first_capacity_ : kSegmentEntries, 2 * pending);
      std::vector<T> segment;
      if (!spare_.empty() && capacity <= kSegmentEntries) {
        segment = std::move(spare_.back());
        spare_.pop_back();
      } else {
        segment.reserve(capacity);
      }
      if (pending > 0) {
        std::vector<T>& last = segments_.back();
        segment.assign(last.begin() + static_cast<std::ptrdiff_t>(begin_),
                       last.end());
        last.resize(begin_);
      }
      segments_.push_back(std::move(segment));
      begin_ = 0;
    }

    List segments_;
    List spare_;             ///< Empty, kSegmentEntries capacity each.
    std::size_t begin_ = 0;  ///< First entry of the pattern being written.
    std::size_t first_capacity_ = kSegmentEntries;  ///< A chunk's first.
  };

  /// A published chunk: its views, and the segments that hold their
  /// entries.
  struct Published {
    Chunk views;
    Segments<std::pair<int, SigValue>>::List cares;
    Segments<BusBit>::List bus;
  };

  void publish();

  const std::size_t chunk_patterns_;
  // Writer only.
  Segments<std::pair<int, SigValue>> cares_;
  Segments<BusBit> bus_;
  Chunk open_;           // the chunk being written
  bool sealed_ = false;  // close() has run
  mutable std::mutex mutex_;
  mutable std::condition_variable published_;
  std::deque<Published> chunks_;  // guarded_by(mutex_)
  /// Emptied full-size segments of released chunks, for the writer.
  Segments<std::pair<int, SigValue>>::List spare_cares_;  // guarded_by(mutex_)
  Segments<BusBit>::List spare_bus_;                      // guarded_by(mutex_)
  std::size_t patterns_ = 0;      // guarded_by(mutex_): in chunks_
  bool released_ = false;         // guarded_by(mutex_): some chunk freed
  bool closed_ = false;           // guarded_by(mutex_)
};

}  // namespace sitam
