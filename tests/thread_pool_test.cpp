// Tests for util/thread_pool: the pool's construction/teardown, priority
// dispatch, saturation and run-after-shutdown rejection, and TaskGroup,
// the one way to wait for parallel work: first-error rethrow, a waiting
// destructor, tasks that start tasks, depth-first order on one thread and
// holds.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_pool.h"

namespace sitam {
namespace {

/// A latch the test opens once: tasks that wait() on it block until then.
class Gate {
 public:
  void open() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    opened_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    opened_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable opened_;
  bool open_ = false;
};

TEST(ThreadPool, ConstructionAndTeardown) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
  }  // destructor joins with an empty queue
}

TEST(ThreadPool, RejectsNonPositiveSize) {
  EXPECT_THROW(ThreadPool(0), std::invalid_argument);
  EXPECT_THROW(ThreadPool(-3), std::invalid_argument);
}

TEST(ThreadPool, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardware_threads(), 1);
}

TEST(ThreadPool, RunAfterShutdownThrows) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.run(JobPriority::kNormal, [&ran] { ran.fetch_add(1); });
  pool.shutdown();
  EXPECT_EQ(ran.load(), 1);  // queued work ran before the join
  EXPECT_THROW(pool.run(JobPriority::kNormal, [&ran] { ran.fetch_add(1); }),
               std::runtime_error);
  pool.shutdown();  // idempotent
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, PrioritiesReorderDispatchFifoWithinLevel) {
  // One worker, blocked on a gate while the test queues a mix of
  // priorities. On release the dispatch order must be every kHigh task
  // (FIFO), then kNormal (FIFO), then kLow (FIFO), whatever the
  // interleaved queueing order.
  std::mutex order_mutex;
  std::vector<std::string> order;
  const auto record = [&order_mutex, &order](std::string tag) {
    return [&order_mutex, &order, tag = std::move(tag)] {
      const std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(tag);
    };
  };
  Gate gate;
  {
    ThreadPool pool(1);
    pool.run(JobPriority::kHigh, [&gate] { gate.wait(); });
    pool.run(JobPriority::kLow, record("low-0"));
    pool.run(JobPriority::kNormal, record("normal-0"));
    pool.run(JobPriority::kHigh, record("high-0"));
    pool.run(JobPriority::kLow, record("low-1"));
    pool.run(JobPriority::kHigh, record("high-1"));
    pool.run(JobPriority::kNormal, record("normal-1"));
    gate.open();  // release the worker
  }  // destructor: drain + join
  const std::vector<std::string> expected = {"high-0", "high-1", "normal-0",
                                             "normal-1", "low-0", "low-1"};
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, SaturationRunsEveryTask) {
  // Far more tasks than workers: every increment must land exactly once
  // and the destructor must drain the backlog.
  std::atomic<int> counter{0};
  constexpr int kTasks = 500;
  {
    ThreadPool pool(4);
    for (int i = 0; i < kTasks; ++i) {
      pool.run(JobPriority::kNormal, [&counter] {
        counter.fetch_add(1, std::memory_order_relaxed);
      });
    }
  }  // destructor: drain + join
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(Executor, OneThreadRunsOnTheCaller) {
  Executor executor(1);
  EXPECT_EQ(executor.size(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  executor.run(JobPriority::kNormal,
               [&ran_on] { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);  // already ran, before run() returned
  EXPECT_EQ(Executor(0).size(), 1);
  EXPECT_EQ(Executor(3).size(), 3);
}

TEST(TaskGroup, WaitRethrowsTheFirstErrorAndDropsLaterOnes) {
  // On one thread the tasks run in start order, so the first error is
  // known; the second is dropped, and a wait after the rethrow is clean.
  Executor executor(1);
  TaskGroup group(executor);
  int ran = 0;
  group.run(JobPriority::kNormal, [&ran] { ++ran; });
  group.run(JobPriority::kNormal,
            [] { throw std::runtime_error("first"); });
  group.run(JobPriority::kNormal, [] { throw std::logic_error("second"); });
  group.run(JobPriority::kNormal, [&ran] { ++ran; });
  try {
    group.wait();
    ADD_FAILURE() << "no throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "first");
  }
  EXPECT_EQ(ran, 2);  // a failed task stops none of the others
  EXPECT_NO_THROW(group.wait());

  // On a pool every task has ended when wait() rethrows.
  Executor pool(3);
  TaskGroup pooled(pool);
  std::atomic<int> ended{0};
  for (int i = 0; i < 24; ++i) {
    pooled.run(JobPriority::kNormal, [&ended, i] {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ended.fetch_add(1);
      if (i % 5 == 0) throw std::runtime_error("task " + std::to_string(i));
    });
  }
  EXPECT_THROW(pooled.wait(), std::runtime_error);
  EXPECT_EQ(ended.load(), 24);
}

TEST(TaskGroup, DestructorWaitsWithoutRethrowing) {
  // A group left without wait() (a caller that unwinds) still outlives
  // its tasks, and drops their errors: a destructor may not throw.
  Executor executor(2);
  Gate gate;
  std::atomic<bool> finished{false};
  std::thread opener([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    gate.open();
  });
  {
    TaskGroup group(executor);
    group.run(JobPriority::kNormal, [&gate, &finished] {
      gate.wait();
      finished = true;
      throw std::runtime_error("never rethrown");
    });
  }
  EXPECT_TRUE(finished.load());
  opener.join();
}

TEST(TaskGroup, TasksMayStartMoreTasks) {
  // A binary tree of tasks, each starting its children from inside: wait()
  // returns once every node has run, on the caller and on a pool.
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    Executor executor(threads);
    TaskGroup group(executor);
    std::atomic<int> nodes{0};
    std::function<void(int)> node = [&](int depth) {
      nodes.fetch_add(1);
      if (depth == 0) return;
      for (int child = 0; child < 2; ++child) {
        group.run(JobPriority::kNormal, [&node, depth] { node(depth - 1); });
      }
    };
    group.run(JobPriority::kNormal, [&node] { node(6); });
    group.wait();
    EXPECT_EQ(nodes.load(), 127);
  }
}

TEST(TaskGroup, OneThreadRunsDepthFirstInStartOrder) {
  // On Executor(1) every run() runs its task at once on the caller, so a
  // task's children run before its next sibling starts.
  Executor executor(1);
  TaskGroup group(executor);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> order;
  bool on_caller = true;
  const auto visit = [&](std::string tag) {
    order.push_back(std::move(tag));
    on_caller = on_caller && std::this_thread::get_id() == caller;
  };
  for (const char* parent : {"a", "b"}) {
    group.run(JobPriority::kNormal, [&, parent] {
      visit(parent);
      for (const char* child : {"1", "2"}) {
        group.run(JobPriority::kLow, [&, parent, child] {
          visit(std::string(parent) + child);
        });
      }
    });
  }
  group.wait();
  const std::vector<std::string> expected = {"a", "a1", "a2",
                                             "b", "b1", "b2"};
  EXPECT_EQ(order, expected);
  EXPECT_TRUE(on_caller);
}

TEST(TaskGroup, HoldKeepsWaitBlockedUntilReleased) {
  // A hold is pending work that is not a task (a count's stage tasks):
  // wait() returns only once it is released, and an error released with
  // it is rethrown.
  Executor executor(2);
  TaskGroup group(executor);
  group.hold();
  std::atomic<bool> released{false};
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    released = true;
    group.release(std::make_exception_ptr(std::runtime_error("held")));
  });
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_TRUE(released.load());
  releaser.join();

  group.hold();
  group.run(JobPriority::kNormal, [&group] { group.release(); });
  EXPECT_NO_THROW(group.wait());
}

}  // namespace
}  // namespace sitam
