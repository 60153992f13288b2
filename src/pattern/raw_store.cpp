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
  Chunk chunk(open_.begin(), open_.end());
  open_.clear();
  {
    const std::lock_guard lock(mutex_);
    chunks_.push_back(std::move(chunk));
  }
  published_.notify_all();
}

void RawPatternStore::close() {
  if (sealed_) return;
  sealed_ = true;
  cares_.drop_pattern();
  bus_.drop_pattern();
  if (open_.size() > 0) publish();
  open_ = {};
  {
    const std::lock_guard lock(mutex_);
    closed_ = true;
  }
  published_.notify_all();
}

const RawPatternStore::Chunk* RawPatternStore::wait_chunk(
    std::size_t k) const {
  std::unique_lock lock(mutex_);
  published_.wait(lock, [&] { return k < chunks_.size() || closed_; });
  return k < chunks_.size() ? &chunks_[k] : nullptr;
}

std::size_t RawPatternStore::size_locked() const {
  SITAM_CHECK_MSG(closed_, "RawPatternStore: read before close()");
  return chunks_.empty()
             ? 0
             : (chunks_.size() - 1) * chunk_patterns_ + chunks_.back().size();
}

std::size_t RawPatternStore::size() const {
  const std::lock_guard lock(mutex_);
  return size_locked();
}

std::vector<PatternView> RawPatternStore::views() const {
  const std::lock_guard lock(mutex_);
  std::vector<PatternView> views;
  views.reserve(size_locked());
  for (const Chunk& chunk : chunks_) {
    views.insert(views.end(), chunk.begin(), chunk.end());
  }
  return views;
}

}  // namespace sitam
