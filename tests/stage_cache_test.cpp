// StageCache (core/stage_cache.h): single flight, cancel hand-over, error
// propagation and the LRU bound. The threaded cases ride the tsan preset.
#include "core/stage_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <utility>
#include <vector>

namespace sitam {
namespace {

using Cache = StageCache<int>;

/// Blocks a compute until the test releases it.
class Gate {
 public:
  void wait_open() const {
    while (!open_.load()) std::this_thread::yield();
  }
  void open() { open_.store(true); }

 private:
  std::atomic<bool> open_{false};
};

/// Starts `compute` as the leader of `key` on its own thread and returns
/// once it runs, so callers arriving later find the entry pending.
std::thread start_leader(Cache& cache, std::uint64_t key,
                         std::function<int()> compute) {
  auto started = std::make_shared<std::atomic<bool>>(false);
  std::thread leader([&cache, key, compute, started] {
    try {
      (void)cache.get_or_compute(key, [&] {
        started->store(true);
        return compute();
      });
    } catch (const std::exception&) {
      // The leader's own failure is the test's setup, not its subject.
    }
  });
  while (!started->load()) std::this_thread::yield();
  return leader;
}

/// Gives threads started just before this call time to block in their
/// wait before the test releases the leader.
void let_waiters_block() {
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

TEST(StageCache, ConcurrentRequestersOfOneKeyComputeOnce) {
  Cache cache(4);
  constexpr int kThreads = 8;
  std::atomic<int> computes{0};
  std::atomic<int> ready{0};
  std::vector<Cache::Lookup> found(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      EXPECT_NO_THROW(found[static_cast<std::size_t>(t)] =
                          cache.get_or_compute(7, [&] {
                            computes.fetch_add(1);
                            std::this_thread::sleep_for(
                                std::chrono::milliseconds(20));
                            return 42;
                          }));
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(computes.load(), 1);
  int misses = 0;
  for (const Cache::Lookup& lookup : found) {
    ASSERT_NE(lookup.value, nullptr);
    EXPECT_EQ(lookup.value.get(), found.front().value.get());
    EXPECT_EQ(*lookup.value, 42);
    misses += lookup.hit ? 0 : 1;
  }
  EXPECT_EQ(misses, 1);  // hits + misses == lookups
}

TEST(StageCache, CancelledLeaderHandsTheComputeToOneWaiter) {
  Cache cache(4);
  Gate gate;
  std::thread leader = start_leader(cache, 1, [&]() -> int {
    gate.wait_open();
    throw Cancelled();
  });

  constexpr int kWaiters = 3;
  std::atomic<int> computes{0};
  std::vector<Cache::Lookup> found(kWaiters);
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&, w] {
      EXPECT_NO_THROW(found[static_cast<std::size_t>(w)] =
                          cache.get_or_compute(1, [&] {
                            computes.fetch_add(1);
                            return 5;
                          }));
    });
  }
  let_waiters_block();
  gate.open();
  leader.join();
  for (std::thread& waiter : waiters) waiter.join();

  EXPECT_EQ(computes.load(), 1);
  int misses = 0;
  for (const Cache::Lookup& lookup : found) {
    ASSERT_NE(lookup.value, nullptr);
    EXPECT_EQ(lookup.value.get(), found.front().value.get());
    misses += lookup.hit ? 0 : 1;
  }
  EXPECT_EQ(misses, 1);
  // Not poisoned: the handed-over value is what the entry now holds.
  const Cache::Lookup again = cache.get_or_compute(1, [] { return -1; });
  EXPECT_TRUE(again.hit);
  EXPECT_EQ(*again.value, 5);
}

TEST(StageCache, FailureReachesEveryWaiterAndIsNotStored) {
  Cache cache(4);
  Gate gate;
  std::thread leader = start_leader(cache, 1, [&]() -> int {
    gate.wait_open();
    throw std::runtime_error("boom");
  });

  constexpr int kWaiters = 3;
  std::atomic<int> errors{0};
  std::vector<std::thread> waiters;
  for (int w = 0; w < kWaiters; ++w) {
    waiters.emplace_back([&] {
      try {
        (void)cache.get_or_compute(1, []() -> int {
          throw std::runtime_error("waiter ran");
        });
      } catch (const std::runtime_error& err) {
        if (std::string(err.what()) == "boom") errors.fetch_add(1);
      }
    });
  }
  let_waiters_block();
  gate.open();
  leader.join();
  for (std::thread& waiter : waiters) waiter.join();
  EXPECT_EQ(errors.load(), kWaiters);

  EXPECT_EQ(cache.size(), 0u);
  const Cache::Lookup retry = cache.get_or_compute(1, [] { return 9; });
  EXPECT_FALSE(retry.hit);
  EXPECT_EQ(*retry.value, 9);
}

// Each waiter rethrows its own exception object, of the leader's exact
// type and message; a type outside the standard hierarchy keeps its type.
TEST(StageCache, EachWaiterGetsItsOwnCopyOfTheFailure) {
  struct Custom : std::runtime_error {
    Custom() : std::runtime_error("custom") {}
  };
  const std::vector<std::function<void()>> throws = {
      [] { throw std::invalid_argument("bad key"); },
      [] { throw std::out_of_range("no such grouping"); },
      [] { throw std::logic_error("check failed"); },
      [] { throw Custom(); }};
  for (std::size_t k = 0; k < throws.size(); ++k) {
    Cache cache(4);
    Gate gate;
    std::thread leader = start_leader(cache, 1, [&]() -> int {
      gate.wait_open();
      throws[k]();
      return 0;
    });
    constexpr int kWaiters = 3;
    std::vector<std::exception_ptr> caught(kWaiters);
    std::vector<std::thread> waiters;
    for (int w = 0; w < kWaiters; ++w) {
      waiters.emplace_back([&, w] {
        try {
          (void)cache.get_or_compute(1, [] { return -1; });
        } catch (...) {
          caught[static_cast<std::size_t>(w)] = std::current_exception();
        }
      });
    }
    let_waiters_block();
    gate.open();
    leader.join();
    for (std::thread& waiter : waiters) waiter.join();

    std::exception_ptr expected;
    try {
      throws[k]();
    } catch (...) {
      expected = std::current_exception();
    }
    const auto identity = [](const std::exception_ptr& error) {
      try {
        std::rethrow_exception(error);
      } catch (const std::exception& e) {
        return std::make_pair(std::string(typeid(e).name()) + ": " + e.what(),
                              static_cast<const void*>(&e));
      }
    };
    const std::string want = identity(expected).first;
    for (int w = 0; w < kWaiters; ++w) {
      ASSERT_NE(caught[static_cast<std::size_t>(w)], nullptr) << "waiter " << w;
    }
    for (int w = 0; w < kWaiters; ++w) {
      const auto [got, object] = identity(caught[static_cast<std::size_t>(w)]);
      EXPECT_EQ(got, want) << "waiter " << w;
      if (k + 1 < throws.size()) {  // the custom type is shared by design
        for (int v = 0; v < w; ++v) {
          EXPECT_NE(object,
                    identity(caught[static_cast<std::size_t>(v)]).second);
        }
      }
    }
  }
}

TEST(StageCache, WaiterChecksItsOwnTokenWhenTheWaitEnds) {
  Cache cache(4);
  Gate gate;
  std::thread leader = start_leader(cache, 1, [&] {
    gate.wait_open();
    return 3;
  });
  CancelToken token;
  std::atomic<bool> cancelled{false};
  std::thread waiter([&] {
    try {
      (void)cache.get_or_compute(1, [] { return -1; }, &token);
    } catch (const Cancelled&) {
      cancelled.store(true);
    }
  });
  let_waiters_block();
  token.request();
  gate.open();
  leader.join();
  waiter.join();
  EXPECT_TRUE(cancelled.load());
  // The leader's value was stored regardless.
  EXPECT_TRUE(cache.get_or_compute(1, [] { return -1; }).hit);
}

TEST(StageCache, CapacityOneEvictsLruButNeverAPendingEntry) {
  Cache cache(1);
  int computes = 0;
  const auto make = [&computes](int value) {
    return [&computes, value] {
      ++computes;
      return value;
    };
  };
  EXPECT_FALSE(cache.get_or_compute(1, make(1)).hit);
  EXPECT_FALSE(cache.get_or_compute(2, make(2)).hit);  // evicts 1
  EXPECT_FALSE(cache.get_or_compute(1, make(1)).hit);  // recomputed
  EXPECT_TRUE(cache.get_or_compute(1, make(1)).hit);
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(cache.size(), 1u);

  // Key 3 stays pending while 4 and 5 finish: each finished entry evicts
  // the older finished one, never the running compute.
  Gate gate;
  std::thread leader = start_leader(cache, 3, [&] {
    gate.wait_open();
    return 3;
  });
  EXPECT_FALSE(cache.get_or_compute(4, make(4)).hit);
  EXPECT_FALSE(cache.get_or_compute(5, make(5)).hit);
  EXPECT_EQ(cache.size(), 2u);  // pending 3 + finished 5
  std::atomic<int> joined_computes{0};
  std::thread joiner([&] {
    EXPECT_NO_THROW((void)cache.get_or_compute(3, [&] {
      joined_computes.fetch_add(1);
      return -3;
    }));
  });
  let_waiters_block();
  gate.open();
  leader.join();
  joiner.join();
  EXPECT_EQ(joined_computes.load(), 0);
  EXPECT_TRUE(cache.get_or_compute(3, make(3)).hit);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(StageCache, EvictsTheLeastRecentlyUsedEntry) {
  Cache cache(2);
  (void)cache.get_or_compute(1, [] { return 1; });
  (void)cache.get_or_compute(2, [] { return 2; });
  EXPECT_TRUE(cache.get_or_compute(1, [] { return 1; }).hit);  // 2 is LRU
  (void)cache.get_or_compute(3, [] { return 3; });
  EXPECT_TRUE(cache.get_or_compute(1, [] { return 1; }).hit);
  EXPECT_FALSE(cache.get_or_compute(2, [] { return 2; }).hit);
}

TEST(StageCache, ClearDropsFinishedEntries) {
  Cache cache(4);
  (void)cache.get_or_compute(1, [] { return 1; });
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.get_or_compute(1, [] { return 1; }).hit);
}

}  // namespace
}  // namespace sitam
