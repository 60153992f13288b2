// Append-only, chunked store of raw SI patterns, and the read-only pattern
// view the care-set index and the compaction kernel read.
//
// A raw §5 set is written once, read by index a few times, and never
// mutated, so it needs neither SiPattern's two heap lists per pattern nor
// sorted care lists: nothing that reads a raw set walks a care list in
// order. The store appends every pattern's (terminal, value) cares and bus
// bits to fixed-size segments (a pattern never straddles two), so nothing
// is ever copied or regrown and the only slack is the unfilled tail of the
// last segment. Segments are 64 KiB, below the size at which the allocator
// maps and unmaps blocks, so a store's memory is recycled by the next one
// instead of being held as free space of a larger heap.
//
// One writer appends patterns; every `chunk_patterns` patterns form a
// chunk, published with one view per pattern. Published chunks never move,
// so a reader on another thread can walk chunk k (wait_chunk) while the
// writer fills chunk k + 1. After close() the whole store reads by index.
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
  /// Patterns per published chunk in the workload prepare.
  static constexpr std::size_t kChunkPatterns = 4096;
  /// Entries per storage segment (64 KiB of cares or of bus bits); a
  /// longer pattern gets a segment of its own size.
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
  /// the writer appends; the chunk stays valid for the store's lifetime.
  [[nodiscard]] const Chunk* wait_chunk(std::size_t k) const;

  /// After close(): the number of patterns, and one view per pattern in
  /// store order.
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

   private:
    void grow() {
      const std::size_t pending =
          segments_.empty() ? 0 : segments_.back().size() - begin_;
      std::vector<T> segment;
      segment.reserve(std::max(kSegmentEntries, 2 * pending));
      if (pending > 0) {
        std::vector<T>& last = segments_.back();
        segment.assign(last.begin() + static_cast<std::ptrdiff_t>(begin_),
                       last.end());
        last.resize(begin_);
      }
      segments_.push_back(std::move(segment));
      begin_ = 0;
    }

    std::vector<std::vector<T>> segments_;
    std::size_t begin_ = 0;  ///< First entry of the pattern being written.
  };

  void publish();
  [[nodiscard]] std::size_t size_locked() const;

  const std::size_t chunk_patterns_;
  // Writer only.
  Segments<std::pair<int, SigValue>> cares_;
  Segments<BusBit> bus_;
  Chunk open_;           // the chunk being written
  bool sealed_ = false;  // close() has run
  mutable std::mutex mutex_;
  mutable std::condition_variable published_;
  std::deque<Chunk> chunks_;  // guarded_by(mutex_)
  bool closed_ = false;       // guarded_by(mutex_)
};

}  // namespace sitam
