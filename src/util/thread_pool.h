// Fixed-size worker thread pool with prioritised, fire-and-forget tasks,
// and the one way to run and wait for parallel work on it: a TaskGroup on
// an Executor.
//
// The §5 protocol is thousands of independent jobs (compaction stages,
// partitions, Algorithm 2 units). Each is a task of one job graph: a
// TaskGroup counts the graph's tasks, records the first exception one
// threw and lets the caller wait for all of them. Results land by index
// (a job's slot, a restart's fold into its job's winner), never by
// finishing order, so no thread count changes them. The pool itself only
// runs closures: run() queues one, and a queued task must not throw (an
// exception leaving a worker ends the program; TaskGroup::run catches on
// its tasks' behalf). shutdown() (also run by the destructor) drains
// every queued task before joining, so no queued work is dropped.
//
// Tasks carry a JobPriority: workers always drain higher-priority queues
// first, FIFO within a priority. The job server uses this to keep
// interactive requests ahead of bulk sweeps, run_protocol to keep a
// cell's prepare ahead of the Algorithm 2 units, and the partition tree
// (hypergraph/partition.h) to keep its attempts ahead of the counts they
// gate. Priorities only reorder *dispatch*, never any task's result.
#pragma once

#include <array>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace sitam {

/// Dispatch priority of a queued task. Lower enum value = drained first.
enum class JobPriority : std::uint8_t {
  kHigh = 0,
  kNormal = 1,
  kLow = 2,
};

/// Number of distinct JobPriority levels (queue array size).
inline constexpr std::size_t kJobPriorityLevels = 3;

class ThreadPool {
 public:
  /// Starts `threads` workers. Throws std::invalid_argument for
  /// threads < 1.
  explicit ThreadPool(int threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Drains the queue and joins all workers (see shutdown()).
  ~ThreadPool();

  [[nodiscard]] int size() const {
    return static_cast<int>(workers_.size());
  }

  /// std::thread::hardware_concurrency clamped to >= 1 (the standard
  /// allows it to report 0 when the count is unknowable).
  [[nodiscard]] static int hardware_threads();

  /// Workers worth starting for `tasks` independent tasks when `requested`
  /// were asked for (0 = hardware_threads(), negative = 1): never more
  /// than the tasks, never fewer than one.
  [[nodiscard]] static int workers_for(int requested, std::size_t tasks);

  /// Stops accepting new tasks, runs everything already queued, then joins
  /// the workers. Idempotent; called by the destructor.
  void shutdown();

  /// Queues `task` at `priority`: workers drain kHigh before kNormal
  /// before kLow, FIFO within each level. `task` must not throw. Throws
  /// std::runtime_error after shutdown().
  void run(JobPriority priority, std::function<void()> task);

 private:
  /// Queued task plus its enqueue timestamp when a trace session was
  /// active (-1 otherwise), so workers can report wait latency to obs.
  struct QueuedTask {
    std::function<void()> run;
    std::int64_t enqueued_ns = -1;
  };

  void worker_loop();

  /// Highest-priority non-empty queue, or nullptr. Caller holds mutex_.
  [[nodiscard]] std::deque<QueuedTask>* next_queue_locked();

  std::vector<std::thread> workers_;
  // One FIFO per priority level, drained lowest index first.
  std::array<std::deque<QueuedTask>, kJobPriorityLevels>
      queues_;                  // guarded_by(mutex_)
  bool shutting_down_ = false;  // guarded_by(mutex_)
  std::mutex mutex_;
  std::condition_variable ready_;
};

/// Runs tasks on a ThreadPool of `threads` workers or, for threads <= 1,
/// on the caller at once (no pool is started). Every job graph runs on
/// one, through a TaskGroup, so a serial run spawns no thread.
class Executor {
 public:
  explicit Executor(int threads) {
    if (threads > 1) pool_.emplace(threads);
  }

  /// Number of threads running tasks (1 when they run on the caller).
  [[nodiscard]] int size() const { return pool_ ? pool_->size() : 1; }

  /// On a pool, queued at `priority`; on the caller, run at once. `task`
  /// must not throw.
  void run(JobPriority priority, std::function<void()> task) {
    if (pool_) {
      pool_->run(priority, std::move(task));
    } else {
      task();
    }
  }

 private:
  std::optional<ThreadPool> pool_;
};

/// The tasks of one job graph on an Executor. A task may start more tasks
/// (run() from inside a task), so the graph chains by continuation and no
/// task waits on another; on an Executor of one thread every run() runs
/// its task at once, so the graph runs depth-first on the caller in the
/// order the tasks are started. Work that is not one task (a count's
/// stage tasks) joins the graph with hold() and leaves it with release().
/// wait() returns once every task and every hold has ended, and rethrows
/// the first exception recorded. The destructor waits too (without
/// rethrowing), so a caller that unwinds leaves no task running.
class TaskGroup {
 public:
  explicit TaskGroup(Executor& executor) : executor_(executor) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  ~TaskGroup();

  [[nodiscard]] Executor& executor() const { return executor_; }

  /// Starts `task` at `priority`. An exception it throws is recorded.
  template <typename F>
  void run(JobPriority priority, F task) {
    hold();
    std::exception_ptr error;
    try {
      executor_.run(priority, [this, task = std::move(task)]() mutable {
        std::exception_ptr failure;
        try {
          task();
        } catch (...) {
          failure = std::current_exception();
        }
        release(std::move(failure));
      });
    } catch (...) {
      error = std::current_exception();
    }
    // Outside the handler, so this thread holds no other reference.
    if (error) release(std::move(error));
  }

  /// One more piece of pending work.
  void hold();
  /// Ends one hold() or task; a non-null `error` is recorded if it is the
  /// first. Taken by value and dropped here, so the caller keeps no copy
  /// of an exception another thread may rethrow.
  void release(std::exception_ptr error = nullptr);
  /// Waits until nothing is pending; rethrows the first recorded error.
  void wait();

 private:
  Executor& executor_;
  std::mutex mutex_;
  std::condition_variable idle_;
  std::size_t pending_ = 0;   // guarded_by(mutex_)
  std::exception_ptr error_;  // guarded_by(mutex_)
};

}  // namespace sitam
