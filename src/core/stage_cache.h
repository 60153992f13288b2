// StageCache: the one bounded, single-flight cache of SitamContext, used
// for its SOC arena, its prepared workloads and its finished results. Keys
// are 64-bit content hashes; values are immutable and shared, so a hit
// hands out a pointer, never a copy.
//
//   - The bound is `capacity` finished entries, evicted least recently
//     used. An entry whose compute is still running is never evicted.
//   - The first requester of a key runs `compute` outside the lock;
//     concurrent requesters of that key wait for the same value.
//   - A failed compute is never stored. If the leader threw Cancelled, the
//     entry is dropped and one waiter becomes the new leader; any other
//     error is rethrown to every waiter, each with its own exception object
//     of the same type and message (StageFailure).
//   - A waiter checks its own CancelToken when its wait ends.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>

#include "util/cancel.h"

namespace sitam {

/// A failed compute as its waiters rethrow it: a fresh object of the same
/// type and message per waiter. One shared object would be freed by
/// whichever thread drops it last, ordered only by the C++ runtime's
/// uninstrumented reference counts (a ThreadSanitizer race). Types other
/// than the standard ones the computes throw are shared as thrown.
struct StageFailure {
  std::exception_ptr (*make)(const std::string&) = nullptr;
  std::string message;
  std::exception_ptr shared;

  /// Call on the leader's thread only.
  [[nodiscard]] static StageFailure of(const std::exception_ptr& thrown) {
    StageFailure failure;
    try {
      std::rethrow_exception(thrown);
    } catch (const std::exception& e) {
      failure.message = e.what();
      failure.recreate<std::invalid_argument, std::out_of_range,
                       std::logic_error, std::runtime_error>(typeid(e));
    } catch (...) {
    }
    if (failure.make == nullptr) failure.shared = thrown;
    return failure;
  }

  /// The exception one waiter rethrows; null when nothing failed.
  [[nodiscard]] std::exception_ptr copy() const {
    return make != nullptr ? make(message) : shared;
  }

 private:
  template <typename E>
  static std::exception_ptr make_as(const std::string& message) {
    return std::make_exception_ptr(E(message));
  }

  template <typename... Types>
  void recreate(const std::type_info& type) {
    ((type == typeid(Types) ? void(make = &make_as<Types>) : void()), ...);
  }
};

template <typename Value>
class StageCache {
 public:
  struct Lookup {
    std::shared_ptr<const Value> value;
    /// False only for the caller that ran compute, so across callers
    /// hits + misses == lookups.
    bool hit = false;
  };

  /// `capacity` is clamped to >= 1.
  explicit StageCache(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  /// The value for `key`, running `compute()` (which returns a Value) when
  /// no finished or running entry holds it. Throws what the compute threw;
  /// Cancelled if `cancel` fired while this caller waited.
  template <typename Compute>
  Lookup get_or_compute(std::uint64_t key, Compute&& compute,
                        const CancelToken* cancel = nullptr) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (auto it = entries_.find(key); it != entries_.end();
         it = entries_.find(key)) {
      const std::shared_ptr<Slot> slot = it->second;
      slot->last_used = ++tick_;
      done_.wait(lock, [&slot] { return !slot->pending; });
      check_cancel(cancel);
      if (slot->value != nullptr) return Lookup{slot->value, true};
      if (const auto error = slot->error.copy()) std::rethrow_exception(error);
      // The leader was cancelled: claim the key unless a waiter already has.
    }
    const auto slot = std::make_shared<Slot>();
    slot->last_used = ++tick_;
    entries_.emplace(key, slot);
    lock.unlock();
    std::shared_ptr<const Value> value;
    std::exception_ptr failure;
    StageFailure error;  // the failure, unless it was Cancelled
    try {
      value = std::make_shared<const Value>(compute());
    } catch (const Cancelled&) {
      failure = std::current_exception();
    } catch (...) {
      failure = std::current_exception();
      error = StageFailure::of(failure);
    }

    lock.lock();
    slot->pending = false;
    slot->value = value;
    slot->error = std::move(error);
    slot->last_used = ++tick_;
    const auto it = entries_.find(key);
    if (it != entries_.end() && it->second == slot) {
      if (value == nullptr) {
        entries_.erase(it);
      } else {
        trim_locked();
      }
    }
    lock.unlock();
    done_.notify_all();
    if (failure != nullptr) std::rethrow_exception(failure);
    return Lookup{value, false};
  }

  /// Entries held, running computes included.
  [[nodiscard]] std::size_t size() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
  }

  /// Drops every finished entry; running computes are stored when done.
  void clear() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::erase_if(entries_, [](const auto& entry) {
      return !entry.second->pending;
    });
  }

 private:
  struct Slot {
    bool pending = true;                  // guarded_by(mutex_)
    std::shared_ptr<const Value> value;   // guarded_by(mutex_)
    StageFailure error;                   // guarded_by(mutex_)
    std::uint64_t last_used = 0;          // guarded_by(mutex_)
  };

  /// Evicts least recently used finished entries until at most capacity_
  /// remain. Caller holds mutex_.
  void trim_locked() {
    for (;;) {
      std::size_t finished = 0;
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (it->second->pending) continue;
        ++finished;
        if (victim == entries_.end() ||
            it->second->last_used < victim->second->last_used) {
          victim = it;
        }
      }
      if (finished <= capacity_) return;
      entries_.erase(victim);
    }
  }

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  /// Signalled whenever a compute finishes; waiters recheck their slot.
  std::condition_variable done_;
  std::uint64_t tick_ = 0;                              // guarded_by(mutex_)
  std::map<std::uint64_t, std::shared_ptr<Slot>> entries_;  // guarded_by(mutex_)
};

}  // namespace sitam
