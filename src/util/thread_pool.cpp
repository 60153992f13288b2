#include "util/thread_pool.h"

#include <algorithm>
#include <stdexcept>

#include "util/obs_hooks.h"

namespace sitam {

namespace {

/// Trampoline for ThreadPoolObsHooks::run_task (a plain function pointer
/// so the hook table needs no std::function machinery).
void run_queued(void* ctx) {
  (*static_cast<std::function<void()>*>(ctx))();
}

}  // namespace

ThreadPool::ThreadPool(int threads) {
  if (threads < 1) {
    throw std::invalid_argument("ThreadPool: threads must be >= 1");
  }
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

int ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

int ThreadPool::workers_for(int requested, std::size_t tasks) {
  const int wanted = requested == 0 ? hardware_threads()
                                    : std::max(1, requested);
  return static_cast<int>(
      std::max<std::size_t>(1, std::min(static_cast<std::size_t>(wanted),
                                        tasks)));
}

void ThreadPool::shutdown() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_ && workers_.empty()) return;
    shutting_down_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void ThreadPool::run(JobPriority priority, std::function<void()> task) {
  const ThreadPoolObsHooks* hooks = thread_pool_obs_hooks();
  QueuedTask queued;
  queued.run = std::move(task);
  if (hooks != nullptr && hooks->enqueue_stamp_ns != nullptr) {
    queued.enqueued_ns = hooks->enqueue_stamp_ns();
  }
  std::size_t depth = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (shutting_down_) {
      throw std::runtime_error("ThreadPool: run after shutdown");
    }
    queues_[static_cast<std::size_t>(priority)].push_back(std::move(queued));
    for (const std::deque<QueuedTask>& queue : queues_) depth += queue.size();
  }
  ready_.notify_one();
  if (hooks != nullptr && hooks->queue_depth != nullptr) {
    hooks->queue_depth(static_cast<std::int64_t>(depth));
  }
}

std::deque<ThreadPool::QueuedTask>* ThreadPool::next_queue_locked() {
  for (std::deque<QueuedTask>& queue : queues_) {
    if (!queue.empty()) return &queue;
  }
  return nullptr;
}

void ThreadPool::worker_loop() {
  set_thread_role("pool-worker");
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] {
        return shutting_down_ || next_queue_locked() != nullptr;
      });
      std::deque<QueuedTask>* queue = next_queue_locked();
      if (queue == nullptr) return;  // shutting down and drained
      task = std::move(queue->front());
      queue->pop_front();
    }
    const ThreadPoolObsHooks* hooks = thread_pool_obs_hooks();
    if (hooks != nullptr) {
      if (task.enqueued_ns >= 0 && hooks->task_dequeued != nullptr) {
        hooks->task_dequeued(task.enqueued_ns);
      }
      if (hooks->run_task != nullptr) {
        hooks->run_task(&run_queued, &task.run);
        continue;
      }
    }
    task.run();  // must not throw: nothing above a worker catches
  }
}

TaskGroup::~TaskGroup() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

void TaskGroup::hold() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++pending_;
}

void TaskGroup::release(std::exception_ptr error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (error && !error_) error_ = std::move(error);
  error = nullptr;
  if (--pending_ == 0) idle_.notify_all();
}

void TaskGroup::wait() {
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return pending_ == 0; });
    error = std::move(error_);
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace sitam
