#include "pattern/raw_store.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"

namespace sitam {

std::vector<PatternView> pattern_views(std::span<const SiPattern> patterns) {
  return {patterns.begin(), patterns.end()};
}

RawPatternStore::RawPatternStore(std::size_t chunk_patterns)
    : chunk_patterns_(chunk_patterns) {
  if (chunk_patterns == 0) {
    throw std::invalid_argument("RawPatternStore: empty chunks");
  }
}

void RawPatternStore::end_pattern() {
  if (sealed_) throw std::logic_error("RawPatternStore: store is closed");
  const std::span<const std::pair<int, SigValue>> cares = cares_.end_pattern();
  const std::span<const BusBit> bus = bus_.end_pattern();
  SITAM_CHECK_MSG(cares.size() < UINT32_MAX && bus.size() < UINT32_MAX,
                  "RawPatternStore: pattern too large");
  if (open_.empty()) open_.reserve(std::min(chunk_patterns_, kChunkPatterns));
  open_.emplace_back(cares, bus);
  if (open_.size() == chunk_patterns_) publish();
}

void RawPatternStore::publish() {
  // Exact size: a last, partial chunk keeps no room for patterns that
  // never came.
  Published chunk{Chunk(open_.begin(), open_.end()), cares_.take(),
                  bus_.take()};
  open_.clear();
  Segments<std::pair<int, SigValue>>::List spare_cares;
  Segments<BusBit>::List spare_bus;
  {
    const std::lock_guard lock(mutex_);
    patterns_ += chunk.views.size();
    chunks_.push_back(std::move(chunk));
    spare_cares.swap(spare_cares_);
    spare_bus.swap(spare_bus_);
  }
  published_.notify_all();
  cares_.recycle(std::move(spare_cares));
  bus_.recycle(std::move(spare_bus));
}

void RawPatternStore::close() {
  if (sealed_) return;
  sealed_ = true;
  cares_.drop_pattern();
  bus_.drop_pattern();
  if (open_.size() > 0) publish();
  open_ = {};
  Segments<std::pair<int, SigValue>>::List spare_cares;
  Segments<BusBit>::List spare_bus;
  {
    const std::lock_guard lock(mutex_);
    closed_ = true;
    spare_cares.swap(spare_cares_);
    spare_bus.swap(spare_bus_);
  }
  published_.notify_all();
  cares_ = {};  // and the writer's own spares
  bus_ = {};
}

const RawPatternStore::Chunk* RawPatternStore::wait_chunk(
    std::size_t k) const {
  std::unique_lock lock(mutex_);
  published_.wait(lock, [&] { return k < chunks_.size() || closed_; });
  return k < chunks_.size() ? &chunks_[k].views : nullptr;
}

void RawPatternStore::release(std::size_t k) {
  Published freed;
  {
    const std::lock_guard lock(mutex_);
    SITAM_CHECK_MSG(k < chunks_.size(), "RawPatternStore: release of an "
                                        "unpublished chunk");
    std::swap(freed, chunks_[k]);
    released_ = true;
    // While the writer runs, full-size segments go back to it, emptied;
    // the rest (a chunk's small first segment, an oversized pattern's),
    // and everything once the store is closed, are freed.
    const auto keep = [this](auto& from, auto& to) {
      if (closed_) return;
      for (auto& segment : from) {
        if (segment.capacity() == kSegmentEntries) {
          segment.clear();
          to.push_back(std::move(segment));
        }
      }
    };
    keep(freed.cares, spare_cares_);
    keep(freed.bus, spare_bus_);
  }
  // What is left of `freed` goes out of scope here, outside the lock.
}

std::size_t RawPatternStore::size() const {
  const std::lock_guard lock(mutex_);
  SITAM_CHECK_MSG(closed_, "RawPatternStore: read before close()");
  return patterns_;
}

std::vector<PatternView> RawPatternStore::views() const {
  const std::lock_guard lock(mutex_);
  SITAM_CHECK_MSG(closed_ && !released_,
                  "RawPatternStore: views() before close() or after release()");
  std::vector<PatternView> views;
  views.reserve(patterns_);
  for (const Published& chunk : chunks_) {
    views.insert(views.end(), chunk.views.begin(), chunk.views.end());
  }
  return views;
}

}  // namespace sitam
