#include "ccpred/common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "ccpred/common/error.hpp"

namespace ccpred {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  // packaged_task is move-only and std::function requires copyability, so
  // the queue stores a shared_ptr-owning thunk.
  auto packaged =
      std::make_shared<std::packaged_task<void()>>(std::move(task));
  auto fut = packaged->get_future();
  post([packaged] { (*packaged)(); });
  return fut;
}

void ThreadPool::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CCPRED_CHECK_MSG(!stop_, "thread pool: post after shutdown began");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

bool ThreadPool::try_post(std::function<void()> task, std::size_t max_queue) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    CCPRED_CHECK_MSG(!stop_, "thread pool: post after shutdown began");
    if (queue_.size() >= max_queue) return false;
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return true;
}

std::size_t ThreadPool::queue_size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

namespace {

std::size_t global_pool_size_from_env() {
  const char* v = std::getenv("CCPRED_THREADS");
  if (v == nullptr || *v == '\0') return 0;
  char* end = nullptr;
  const long parsed = std::strtol(v, &end, 10);
  if (end == v || *end != '\0' || parsed <= 0) return 0;
  return static_cast<std::size_t>(parsed);
}

}  // namespace

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(global_pool_size_from_env());
  return pool;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // post()'s contract: the enqueued thunk does not throw
  }
}

TaskGroup::TaskGroup(ThreadPool& pool) : pool_(pool) {}

TaskGroup::~TaskGroup() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return pending_ == 0; });
}

void TaskGroup::run(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  auto counted = [this, task = std::move(task)] {
    std::exception_ptr err;
    try {
      task();
    } catch (...) {
      err = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (err && !error_) error_ = err;
    if (--pending_ == 0) cv_.notify_all();
  };
  try {
    pool_.post(std::move(counted));
  } catch (...) {
    // The pool is shutting down: the task never runs, so it must not keep
    // wait() and the destructor waiting.
    std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_ == 0) cv_.notify_all();
    throw;
  }
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return pending_ == 0; });
  if (error_) {
    std::exception_ptr err = std::exchange(error_, nullptr);
    std::rethrow_exception(err);
  }
}

namespace {
thread_local bool in_parallel_region_flag = false;
}  // namespace

bool in_parallel_region() { return in_parallel_region_flag; }

void set_in_parallel_region(bool value) { in_parallel_region_flag = value; }

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body,
                  ThreadPool* pool) {
  if (begin >= end) return;
  if (pool == nullptr) pool = &ThreadPool::global();

  const std::size_t n = end - begin;
  const std::size_t workers = std::min(pool->size(), n);

  if (workers <= 1 || in_parallel_region_flag) {
    for (std::size_t i = begin; i < end; ++i) body(i);
    return;
  }

  const std::size_t chunk = (n + workers - 1) / workers;
  TaskGroup group(*pool);
  for (std::size_t w = 0; w < workers; ++w) {
    const std::size_t lo = begin + w * chunk;
    const std::size_t hi = std::min(end, lo + chunk);
    if (lo >= hi) break;
    group.run([lo, hi, &body] {
      in_parallel_region_flag = true;
      for (std::size_t i = lo; i < hi; ++i) body(i);
      in_parallel_region_flag = false;
    });
  }
  group.wait();  // rethrows the first chunk exception, if any
}

}  // namespace ccpred
