#pragma once

/// \file thread_pool.hpp
/// A fixed-size worker pool, a deterministic parallel_for and a TaskGroup
/// batch waiter.
///
/// ccpred parallelizes embarrassingly parallel loops: forest/committee
/// member training, gradient-boosting residual updates, cross-validation
/// folds, hyper-parameter candidates and dataset generation. Work is
/// partitioned statically by index so results are bitwise identical
/// regardless of worker count or scheduling, as long as each index derives
/// its randomness from its own Rng stream.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace ccpred {

/// RAII thread pool; joins all workers on destruction.
class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task; the future resolves when it completes (exceptions
  /// propagate through the future). Throws like post() once the pool's
  /// destructor has begun.
  std::future<void> submit(std::function<void()> task);

  /// Fire-and-forget enqueue: no future is allocated, so there is nobody to
  /// receive an exception — the task must not throw. Waiters that need
  /// exception propagation without per-task futures use TaskGroup, whose
  /// run() wraps the task accordingly.
  ///
  /// Throws ccpred::Error once the destructor has begun: a task enqueued
  /// then might never run, and whoever waits on it would wait forever.
  /// Owners order their members so nothing posts into a draining pool.
  void post(std::function<void()> task);

  /// Bounded-admission post: enqueues only if fewer than `max_queue` tasks
  /// are waiting (tasks already running do not count), otherwise rejects
  /// and returns false without consuming resources. This is the load-
  /// shedding primitive for callers that must not build an unbounded
  /// backlog (the serving layer's admission control). Throws like post()
  /// once the destructor has begun.
  bool try_post(std::function<void()> task, std::size_t max_queue);

  /// Tasks enqueued but not yet picked up by a worker.
  std::size_t queue_size() const;

  /// Process-wide shared pool (lazily constructed). Its size honors the
  /// CCPRED_THREADS environment variable when set to a positive integer,
  /// otherwise hardware concurrency.
  static ThreadPool& global();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

/// Submits a batch of tasks to a pool and waits for them as one unit.
/// Unlike raw post(), a task exception is not lost: the first one is
/// captured as a std::exception_ptr and rethrown from wait(), so the waiter
/// observes failures exactly as it would with per-task futures but without
/// a future allocation per task.
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool = ThreadPool::global());

  /// Waits for outstanding tasks; a still-pending exception is dropped
  /// (destructors must not throw) — call wait() to observe it.
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues one task on the pool as part of this group.
  void run(std::function<void()> task);

  /// Blocks until every task run() so far has finished, then rethrows the
  /// first captured task exception (if any). The group is reusable after
  /// wait() returns or throws.
  void wait();

 private:
  ThreadPool& pool_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;
  std::exception_ptr error_;
};

/// Runs body(i) for i in [begin, end) across the pool, blocking until all
/// iterations finish. The index range is split into contiguous chunks, one
/// per worker. The first exception thrown by any iteration is rethrown.
///
/// Safe to call from non-worker threads only (no nested parallel_for on the
/// same pool — nesting would deadlock a fixed-size pool; nested calls instead
/// run serially, detected via a thread-local depth flag).
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool = nullptr);

/// True on a thread currently running inside a parallel_for (or TaskScope)
/// chunk. Data-parallel constructs check this and run serially when nested,
/// because nested fan-out on a fixed-size pool would deadlock.
bool in_parallel_region();

/// Marks/unmarks the calling thread as inside a parallel chunk. Exposed for
/// the executor layer's TaskScope, which shares parallel_for's nested-
/// execution rule; application code has no reason to call it.
void set_in_parallel_region(bool value);

}  // namespace ccpred
