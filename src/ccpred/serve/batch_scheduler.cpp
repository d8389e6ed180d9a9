#include "ccpred/serve/batch_scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ccpred/serve/server.hpp"

namespace ccpred::serve {

BatchScheduler::BatchScheduler(Server& server, BatchOptions options)
    : server_(server),
      options_(options),
      max_inflight_(options.max_inflight > 0 ? options.max_inflight
                                             : server.pool_.size()),
      hold_(std::chrono::microseconds(options.max_hold_us)),
      size_hist_(std::make_unique<std::atomic<std::uint64_t>[]>(
          options_.max_batch + 1)),
      flusher_([this] { flusher_loop(); }) {}

BatchScheduler::~BatchScheduler() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stop_ = true;
    while (!pending_.empty()) flush_locked();
    while (inflight_ > 0) cv_.wait(lock);
  }
  cv_.notify_all();
  flusher_.join();
}

BatchScheduler::Clock::time_point BatchScheduler::trigger_for(
    const Pending& p) const {
  const Clock::time_point held = p.enqueued + hold_;
  if (p.deadline == Clock::time_point::max()) return held;
  return std::min(held, p.deadline - hold_);
}

void BatchScheduler::submit(Request request,
                            std::function<void(Response)> done) {
  const Clock::time_point deadline = Server::deadline_for(request);
  const Clock::time_point now = Clock::now();
  // Construct outside the lock: the mutex is the whole scheduler's
  // serialization point, so only the queue ops belong inside it.
  Pending p{std::move(request), std::move(done), deadline, now};

  std::unique_lock<std::mutex> lock(mutex_);
  if (pending_.empty() && inflight_ == 0) {
    // Idle server: dispatch alone, zero added latency. Anything stricter
    // than "truly idle" here (e.g. any free slot) lets a closed-loop
    // client stream degenerate into size-1 dispatches — while work is in
    // flight, arrivals coalesce and the completion pump or the hold
    // window flushes them as one batch.
    server_.queue_depth_.fetch_add(1, std::memory_order_relaxed);
    record_dispatch(1);
    ++inflight_;
    lock.unlock();
    Flush alone(1);
    alone.add(p);
    dispatch(std::move(alone));
    return;
  }
  if (server_.options_.max_queue_depth > 0 &&
      pending_.size() >= server_.options_.max_queue_depth) {
    // Same admission bound the unbatched route enforces through try_post.
    lock.unlock();
    server_.shed_.fetch_add(1, std::memory_order_relaxed);
    p.done(error_response(
        "server overloaded: queue depth limit " +
            std::to_string(server_.options_.max_queue_depth) + " reached",
        op_name(p.request.op), p.request.id, "overloaded"));
    return;
  }
  server_.queue_depth_.fetch_add(1, std::memory_order_relaxed);
  if (deadline != Clock::time_point::max()) ++deadline_count_;
  pending_.push_back(std::move(p));
  if (pending_.size() >= options_.max_batch && inflight_ < max_inflight_) {
    flush_locked();
    return;
  }
  // Wake the flusher only when this request's trigger lands before the
  // instant it is already sleeping until — unconditional notifies cost a
  // futex wake per enqueue under load.
  if (trigger_for(pending_.back()) < armed_) cv_.notify_all();
}

void BatchScheduler::flusher_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (pending_.empty()) {
      armed_ = Clock::time_point::max();
      cv_.wait(lock);
      continue;
    }
    Clock::time_point earliest = trigger_for(pending_.front());
    for (const Pending& p : pending_) {
      earliest = std::min(earliest, trigger_for(p));
    }
    if (Clock::now() >= earliest) {
      // Hold (or a deadline's EDF cut) expired: flush even when every
      // slot is busy — the pool queues the batch, keeping hold time a
      // hard bound rather than a hint.
      flush_locked();
      continue;
    }
    armed_ = earliest;
    cv_.wait_until(lock, earliest);
  }
}

void BatchScheduler::flush_locked() {
  // A size-capped flush boards the tightest deadlines first (EDF); the
  // rest stay queued in that order for the next flush. With no deadline
  // queued EDF is FIFO, so the (possibly deep) queue is not sorted under
  // the lock.
  if (pending_.size() > options_.max_batch && deadline_count_ > 0) {
    std::stable_sort(pending_.begin(), pending_.end(),
                     [](const Pending& a, const Pending& b) {
                       return a.deadline < b.deadline;
                     });
  }
  const std::size_t n = std::min(pending_.size(), options_.max_batch);
  Flush batch(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (pending_.front().deadline != Clock::time_point::max()) {
      --deadline_count_;
    }
    batch.add(pending_.front());
    pending_.pop_front();
  }
  record_dispatch(n);
  ++inflight_;
  dispatch(std::move(batch));
}

void BatchScheduler::dispatch(Flush flush) {
  // ONE pool hand-off for the whole flush — the per-request hand-off this
  // layer exists to amortize. A bypass or one-deep flush is a batch of
  // one through the same path, and handle_batch reads the flush in place.
  //
  // The slot is freed (on_batch_done) as soon as the answers are computed,
  // BEFORE completions are delivered: a closed-loop client's next request
  // can race the delivery loop, and seeing a phantom in-flight slot would
  // queue it behind a hold window instead of bypassing. on_batch_done is
  // the last touch of `this` — once the slot count hits zero the
  // destructor may run — so everything after it goes through `srv`, whose
  // pool joins this task before the Server's own fields die.
  Server* srv = &server_;
  server_.pool_.post([this, srv, flush = std::move(flush)]() mutable {
    if (srv->fault_ != nullptr) {
      srv->fault_->maybe_delay(FaultPoint::kWorkerStall);
    }
    std::vector<Response> out =
        srv->handle_batch(flush.requests, flush.deadlines);
    on_batch_done();
    for (std::size_t i = 0; i < out.size(); ++i) {
      flush.dones[i](std::move(out[i]));
      srv->queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    }
  });
}

void BatchScheduler::on_batch_done() {
  std::unique_lock<std::mutex> lock(mutex_);
  --inflight_;
  // Work-conserving pump: a freed slot immediately flushes whatever
  // queued while the last batch ran.
  while (!pending_.empty() && inflight_ < max_inflight_) flush_locked();
  // Only the destructor waits on inflight_; don't pay a futex wake on
  // every completed dispatch during normal operation.
  if (stop_) cv_.notify_all();
}

void BatchScheduler::record_dispatch(std::size_t size) {
  if (size >= 2) {
    batch_flushes_.fetch_add(1, std::memory_order_relaxed);
    batched_requests_.fetch_add(size, std::memory_order_relaxed);
  } else {
    batch_bypass_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t slot = std::min(size, options_.max_batch);
  size_hist_[slot].fetch_add(1, std::memory_order_relaxed);
}

void BatchScheduler::fill_stats(ServerStats& stats) const {
  stats.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  stats.batch_flushes = batch_flushes_.load(std::memory_order_relaxed);
  stats.batch_bypass = batch_bypass_.load(std::memory_order_relaxed);
  std::uint64_t total = 0;
  for (std::size_t s = 1; s <= options_.max_batch; ++s) {
    total += size_hist_[s].load(std::memory_order_relaxed);
  }
  if (total == 0) return;
  const auto quantile = [&](double q) {
    const auto rank =
        static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (std::size_t s = 1; s <= options_.max_batch; ++s) {
      seen += size_hist_[s].load(std::memory_order_relaxed);
      if (seen >= rank) return static_cast<double>(s);
    }
    return static_cast<double>(options_.max_batch);
  };
  stats.batch_size_p50 = quantile(0.50);
  stats.batch_size_p95 = quantile(0.95);
}

}  // namespace ccpred::serve
