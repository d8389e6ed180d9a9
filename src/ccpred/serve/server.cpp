#include "ccpred/serve/server.hpp"

#include <algorithm>
#include <array>
#include <deque>
#include <tuple>
#include <utility>

#include "ccpred/common/error.hpp"
#include "ccpred/common/stopwatch.hpp"
#include "ccpred/sim/solver.hpp"

namespace ccpred::serve {
namespace {

/// Decrements a gauge on every exit path (exception-safe queue_depth
/// accounting: a faulted or deadline-exceeded request must still return
/// the depth to zero).
struct GaugeGuard {
  std::atomic<std::size_t>& gauge;
  ~GaugeGuard() { gauge.fetch_sub(1, std::memory_order_relaxed); }
};

}  // namespace

Server::Server(ModelRegistry& registry, ServeOptions options)
    : registry_(registry),
      options_(std::move(options)),
      fault_(options_.fault_injector),
      cache_(options_.cache_capacity, options_.cache_shards),
      sweep_pool_(options_.threads),
      pool_(options_.threads) {
  cache_.set_fault_injector(fault_);
  if (options_.online.enabled) {
    online_ = std::make_unique<online::OnlineTrainer>(
        registry_, &cache_, options_.online, fault_);
  }
  if (options_.batch.enabled) {
    batcher_ = std::make_unique<BatchScheduler>(*this, options_.batch);
  }
}

void Server::set_overflow_source(std::function<std::uint64_t()> source) {
  const std::lock_guard<std::mutex> lock(overflow_mutex_);
  overflow_source_ = std::move(source);
}

Server::SweepResult Server::compute_sweep(const ModelHandle& handle,
                                          const SweepKey& key) {
  SweepResult result;
  try {
    const guide::Advisor advisor(*handle.model, simulator(key.machine));
    auto sweep = std::make_shared<const guide::Recommendation>(
        advisor.recommend(key.o, key.v, guide::Objective::kShortestTime));
    sweeps_computed_.fetch_add(1, std::memory_order_relaxed);
    cache_.put(key, sweep);
    result.sweep = std::move(sweep);
  } catch (const std::exception& e) {
    result.error = e.what();
  } catch (...) {
    result.error = "sweep failed with a non-standard exception";
  }
  return result;
}

void Server::settle_sweep(const SweepKey& key,
                          std::promise<SweepResult>& promise,
                          SweepResult result) {
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    inflight_.erase(key);
  }
  promise.set_value(std::move(result));
}

const sim::CcsdSimulator& Server::simulator(const std::string& machine) {
  const std::lock_guard<std::mutex> lock(simulators_mutex_);
  auto it = simulators_.find(machine);
  if (it == simulators_.end()) {
    it = simulators_.emplace(machine, simulator_for(machine)).first;
  }
  return it->second;
}

SweepPtr Server::sweep_for(const std::string& machine, const std::string& kind,
                           int o, int v, Clock::time_point deadline,
                           std::uint64_t* model_version, bool* cache_hit,
                           bool* stale, bool* timed_out) {
  *timed_out = false;
  const ModelHandle handle = registry_.get(machine, kind);
  *model_version = handle.version;
  *stale = handle.stale;
  const SweepKey key{machine, kind, handle.version, o, v};
  if (SweepPtr cached = cache_.get(key)) {
    *cache_hit = true;
    return cached;
  }
  *cache_hit = false;

  // Single-flight: the first requester becomes the leader and schedules
  // ONE sweep on the sweep pool; everyone (leader included) waits on its
  // shared future. Running the sweep off the request thread lets a
  // deadline abandon the wait while the computation still completes and
  // populates the cache.
  auto promise = std::make_shared<std::promise<SweepResult>>();
  std::shared_future<SweepResult> future;
  bool leader = false;
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto it = inflight_.find(key);
    if (it == inflight_.end()) {
      leader = true;
      future = promise->get_future().share();
      inflight_[key] = future;
    } else {
      future = it->second;
    }
  }
  if (leader) {
    // A failed sweep resolves the shared future with an error STRING, not
    // an exception_ptr — see SweepResult for why (TSAN vs. cross-thread
    // exception_ptr release in uninstrumented libstdc++).
    auto sweep_task = [this, promise, handle, key] {
      if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kSweepCompute);
      settle_sweep(key, *promise, compute_sweep(handle, key));
    };
    try {
      sweep_pool_.post(std::move(sweep_task));
    } catch (const std::exception& e) {
      settle_sweep(key, *promise, SweepResult{nullptr, e.what()});
    }
  } else {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
  }
  if (deadline != Clock::time_point::max() &&
      future.wait_until(deadline) == std::future_status::timeout) {
    *timed_out = true;
    return nullptr;
  }
  const SweepResult& result = future.get();
  // Rethrown on the waiting thread: handle_until turns it into the same
  // code="internal" response the old exception-carrying future produced.
  if (result.sweep == nullptr) throw Error(result.error);
  return result.sweep;
}

Response Server::dispatch(const Request& req, Clock::time_point deadline) {
  if (req.op == Op::kStats) return stats_response(req.id, stats());
  Response r;
  r.op = op_name(req.op);
  r.id = req.id;

  const std::string machine =
      req.machine.empty() ? options_.default_machine : req.machine;

  if (req.op == Op::kReport) {
    if (online_ == nullptr) {
      return error_response("online learning is disabled on this server",
                            r.op, r.id, "bad_request");
    }
    const std::string kind =
        req.model.empty() ? options_.default_model : req.model;
    const sim::RunConfig cfg{
        .o = req.o, .v = req.v, .nodes = req.nodes, .tile = req.tile};
    const online::ReportOutcome outcome =
        online_->ingest(machine, kind, cfg, req.wall_times);
    r.ok = true;
    r.has_report = true;
    r.accepted = outcome.accepted;
    r.duplicates = outcome.duplicates;
    r.buffered = outcome.buffered;
    r.rolling_mape = outcome.rolling_mape;
    r.drifting = outcome.drifting;
    r.refit_scheduled = outcome.refit_scheduled;
    r.model_version = outcome.model_version;
    return r;
  }

  if (req.op == Op::kJob) {
    const sim::RunConfig cfg{
        .o = req.o, .v = req.v, .nodes = req.nodes, .tile = req.tile};
    const auto job = sim::estimate_job(simulator(machine), cfg);
    r.ok = true;
    r.has_job = true;
    r.iterations = job.iterations;
    r.setup_s = job.setup_s;
    r.iteration_s = job.iteration_s;
    r.total_s = job.total_s;
    r.node_hours = job.node_hours;
    return r;
  }

  // STQ / BQ / budget: one cached sweep answers all three.
  const std::string kind =
      req.model.empty() ? options_.default_model : req.model;
  std::uint64_t version = 0;
  bool cache_hit = false;
  bool stale = false;
  bool timed_out = false;
  const SweepPtr sweep = sweep_for(machine, kind, req.o, req.v, deadline,
                                   &version, &cache_hit, &stale, &timed_out);
  if (timed_out) {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
    r.ok = false;
    r.code = "deadline";
    r.error = "deadline of " + std::to_string(req.deadline_ms) +
              " ms exceeded; the sweep continues in the background";
    return r;
  }

  // Answer through a pointer: STQ reads the cached recommendation in
  // place (copying it would clone the whole swept grid per request).
  guide::Recommendation computed;
  const guide::Recommendation* rec = &computed;
  switch (req.op) {
    case Op::kStq:
      rec = sweep.get();  // the cached sweep IS the shortest-time answer
      break;
    case Op::kBq:
      computed = guide::Advisor::from_sweep(sweep->sweep,
                                            guide::Objective::kNodeHours);
      break;
    case Op::kBudget:
      computed =
          guide::Advisor::fastest_within_budget(*sweep, req.max_node_hours);
      break;
    default:
      throw Error("unhandled op");  // unreachable
  }
  r.ok = true;
  r.stale = stale;
  if (stale) stale_served_.fetch_add(1, std::memory_order_relaxed);
  r.has_recommendation = true;
  r.nodes = rec->config.nodes;
  r.tile = rec->config.tile;
  r.time_s = rec->predicted_time_s;
  r.node_hours = rec->predicted_node_hours;
  r.model_version = version;
  r.sweep_size = sweep->sweep.size();
  r.cache_hit = cache_hit;
  return r;
}

Response Server::handle_until(const Request& req, Clock::time_point deadline) {
  const Stopwatch timer;
  requests_.fetch_add(1, std::memory_order_relaxed);
  Response r;
  try {
    if (deadline != Clock::time_point::max() && Clock::now() >= deadline) {
      // Expired while queued: answer without doing the work.
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      r = error_response("deadline of " + std::to_string(req.deadline_ms) +
                             " ms exceeded before dispatch",
                         op_name(req.op), req.id, "deadline");
    } else {
      r = dispatch(req, deadline);
    }
  } catch (const std::exception& e) {
    r = error_response(e.what(), op_name(req.op), req.id, "internal");
  }
  if (!r.ok) errors_.fetch_add(1, std::memory_order_relaxed);
  const double elapsed_s = timer.elapsed_s();
  latency_.record(elapsed_s);
  op_latency_[static_cast<std::size_t>(req.op)].record(elapsed_s);
  return r;
}

Response Server::handle(const Request& req) {
  return handle_until(req, deadline_for(req));
}

std::vector<Response> Server::dispatch_batch(
    const std::vector<Request>& batch) {
  std::vector<Clock::time_point> deadlines;
  deadlines.reserve(batch.size());
  for (const Request& req : batch) deadlines.push_back(deadline_for(req));
  return handle_batch(batch, deadlines);
}

std::vector<Response> Server::handle_batch(
    const std::vector<Request>& batch,
    const std::vector<Clock::time_point>& deadlines) {
  const Stopwatch timer;
  std::vector<Response> out(batch.size());
  // Group sweep-shaped members by (machine, kind); the other verbs have no
  // cross-request work to share and take the serial path. std::map keeps
  // group order deterministic.
  std::map<std::pair<std::string, std::string>, std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& req = batch[i];
    if (req.op == Op::kStq || req.op == Op::kBq || req.op == Op::kBudget) {
      groups[{req.machine.empty() ? options_.default_machine : req.machine,
              req.model.empty() ? options_.default_model : req.model}]
          .push_back(i);
    } else {
      out[i] = handle_until(req, deadlines[i]);
    }
  }
  for (const auto& [mk, members] : groups) {
    answer_group(mk.first, mk.second, members, batch, deadlines, timer, &out);
  }
  return out;
}

void Server::answer_group(const std::string& machine, const std::string& kind,
                          const std::vector<std::size_t>& members,
                          const std::vector<Request>& batch,
                          const std::vector<Clock::time_point>& deadlines,
                          const Stopwatch& timer, std::vector<Response>* out) {
  // One model-handle acquisition per group — the serial path stat()s the
  // artifact once per request; the whole group shares one here.
  ModelHandle handle;
  std::string handle_error;
  try {
    handle = registry_.get(machine, kind);
  } catch (const std::exception& e) {
    handle_error = e.what();
  }

  // Dedup members onto unique (O, V) keys and batch-probe the cache once
  // per key (the serial path probes once per request).
  std::vector<SweepKey> keys;
  std::map<std::pair<int, int>, std::size_t> key_index;
  std::vector<std::size_t> member_key(members.size(), 0);
  if (handle_error.empty()) {
    for (std::size_t m = 0; m < members.size(); ++m) {
      const Request& req = batch[members[m]];
      const auto [it, inserted] =
          key_index.try_emplace(std::pair<int, int>{req.o, req.v},
                                keys.size());
      if (inserted) {
        keys.push_back(SweepKey{machine, kind, handle.version, req.o, req.v});
      }
      member_key[m] = it->second;
    }
  }
  std::vector<SweepPtr> cached;
  cache_.get_batch(keys, &cached);

  // Single-flight join per cold key: keys this group leads are swept one
  // by one in ONE sweep-pool task; keys already in flight elsewhere are
  // waited on exactly like the serial path.
  std::vector<std::shared_future<SweepResult>> futures(keys.size());
  std::vector<std::shared_ptr<std::promise<SweepResult>>> promises(
      keys.size());
  std::vector<std::size_t> leaders;
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    for (std::size_t k = 0; k < keys.size(); ++k) {
      if (cached[k] != nullptr) continue;
      const auto it = inflight_.find(keys[k]);
      if (it == inflight_.end()) {
        promises[k] = std::make_shared<std::promise<SweepResult>>();
        futures[k] = promises[k]->get_future().share();
        inflight_[keys[k]] = futures[k];
        leaders.push_back(k);
      } else {
        futures[k] = it->second;
      }
    }
  }
  if (!leaders.empty()) {
    std::vector<SweepKey> lead_keys;
    std::vector<std::shared_ptr<std::promise<SweepResult>>> lead_promises;
    lead_keys.reserve(leaders.size());
    lead_promises.reserve(leaders.size());
    for (const std::size_t k : leaders) {
      lead_keys.push_back(keys[k]);
      lead_promises.push_back(promises[k]);
    }
    // Each key settles as soon as its own sweep finishes, and a failing
    // key (e.g. an infeasible problem) fails alone.
    auto sweep_task = [this, handle, lead_keys = std::move(lead_keys),
                       lead_promises = std::move(lead_promises)] {
      if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kSweepCompute);
      for (std::size_t k = 0; k < lead_keys.size(); ++k) {
        settle_sweep(lead_keys[k], *lead_promises[k],
                     compute_sweep(handle, lead_keys[k]));
      }
    };
    try {
      sweep_pool_.post(std::move(sweep_task));
    } catch (const std::exception& e) {
      for (const std::size_t k : leaders) {
        settle_sweep(keys[k], *promises[k], SweepResult{nullptr, e.what()});
      }
    }
  }

  // Answer every member with the serial path's exact derivations and
  // accounting. The first member of a led key is the sweep's "miss"; every
  // further member of that key — and every member of an externally
  // in-flight key — coalesced onto an existing flight, same as serial.
  //
  // BQ/budget answers scan the whole swept grid; members sharing a sweep
  // key, verb, and budget get bit-identical answers by construction (the
  // pick_* scans are pure and shared with the serial path's from_sweep /
  // fastest_within_budget), so each distinct derivation runs once per
  // flush and its winning point fans out.
  std::vector<std::tuple<std::size_t, Op, double>> derived_keys;
  std::vector<guide::SweepPoint> derived_points;
  std::vector<bool> key_claimed(keys.size(), false);
  std::array<std::uint64_t, kNumOps> op_counts{};
  requests_.fetch_add(members.size(), std::memory_order_relaxed);
  for (std::size_t m = 0; m < members.size(); ++m) {
    const std::size_t i = members[m];
    const Request& req = batch[i];
    ++op_counts[static_cast<std::size_t>(req.op)];
    Response r;
    try {
      if (deadlines[i] != Clock::time_point::max() &&
          Clock::now() >= deadlines[i]) {
        deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        r = error_response("deadline of " + std::to_string(req.deadline_ms) +
                               " ms exceeded before dispatch",
                           op_name(req.op), req.id, "deadline");
      } else if (!handle_error.empty()) {
        throw Error(handle_error);
      } else {
        const std::size_t k = member_key[m];
        const bool cache_hit = cached[k] != nullptr;
        SweepPtr sweep = cached[k];
        bool timed_out = false;
        if (sweep == nullptr) {
          if (promises[k] != nullptr && !key_claimed[k]) {
            key_claimed[k] = true;
          } else {
            coalesced_.fetch_add(1, std::memory_order_relaxed);
          }
          if (deadlines[i] != Clock::time_point::max() &&
              futures[k].wait_until(deadlines[i]) ==
                  std::future_status::timeout) {
            timed_out = true;
          } else {
            const SweepResult& result = futures[k].get();
            if (result.sweep == nullptr) throw Error(result.error);
            sweep = result.sweep;
          }
        }
        r.op = op_name(req.op);
        r.id = req.id;
        if (timed_out) {
          deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
          r.ok = false;
          r.code = "deadline";
          r.error = "deadline of " + std::to_string(req.deadline_ms) +
                    " ms exceeded; the sweep continues in the background";
        } else {
          guide::SweepPoint pt;
          if (req.op == Op::kStq) {
            // The cached sweep IS the shortest-time answer.
            pt.config = sweep->config;
            pt.predicted_time_s = sweep->predicted_time_s;
            pt.predicted_node_hours = sweep->predicted_node_hours;
          } else {
            const double budget =
                req.op == Op::kBudget ? req.max_node_hours : 0.0;
            bool memoized = false;
            for (std::size_t d = 0; d < derived_keys.size(); ++d) {
              const auto& [dk, dop, dbudget] = derived_keys[d];
              if (dk == k && dop == req.op && dbudget == budget) {
                pt = derived_points[d];
                memoized = true;
                break;
              }
            }
            if (!memoized) {
              switch (req.op) {
                case Op::kBq:
                  pt = guide::Advisor::pick_best(
                      sweep->sweep, guide::Objective::kNodeHours);
                  break;
                case Op::kBudget:
                  pt = guide::Advisor::pick_within_budget(*sweep, budget);
                  break;
                default:
                  throw Error("unhandled op");  // unreachable
              }
              derived_keys.emplace_back(k, req.op, budget);
              derived_points.push_back(pt);
            }
          }
          r.ok = true;
          r.stale = handle.stale;
          if (handle.stale) {
            stale_served_.fetch_add(1, std::memory_order_relaxed);
          }
          r.has_recommendation = true;
          r.nodes = pt.config.nodes;
          r.tile = pt.config.tile;
          r.time_s = pt.predicted_time_s;
          r.node_hours = pt.predicted_node_hours;
          r.model_version = handle.version;
          r.sweep_size = sweep->sweep.size();
          r.cache_hit = cache_hit;
        }
      }
    } catch (const std::exception& e) {
      r = error_response(e.what(), op_name(req.op), req.id, "internal");
    }
    if (!r.ok) errors_.fetch_add(1, std::memory_order_relaxed);
    (*out)[i] = std::move(r);
  }
  // Every member of the flush completes when the flush completes, so one
  // timestamp and one bulk record per verb replaces 2 histogram updates
  // per member.
  const double elapsed_s = timer.elapsed_s();
  latency_.record_n(elapsed_s, members.size());
  for (std::size_t op = 0; op < kNumOps; ++op) {
    op_latency_[op].record_n(elapsed_s, op_counts[op]);
  }
}

std::future<Response> Server::submit(Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submit_with(std::move(request),
              [promise](Response r) { promise->set_value(std::move(r)); });
  return future;
}

void Server::submit_with(Request request, std::function<void(Response)> done) {
  if (batcher_ != nullptr) {
    batcher_->submit(std::move(request), std::move(done));
    return;
  }
  const auto deadline = deadline_for(request);
  const std::string op = op_name(request.op);
  const std::string id = request.id;

  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  auto task = [this, done, deadline, request = std::move(request)]() {
    const GaugeGuard guard{queue_depth_};
    if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kWorkerStall);
    done(handle_until(request, deadline));
  };
  bool admitted = true;
  if (options_.max_queue_depth == 0) {
    pool_.post(std::move(task));
  } else {
    admitted = pool_.try_post(std::move(task), options_.max_queue_depth);
  }
  if (!admitted) {
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(1, std::memory_order_relaxed);
    done(error_response("server overloaded: queue depth limit " +
                            std::to_string(options_.max_queue_depth) +
                            " reached",
                        op, id, "overloaded"));
  }
}

void Server::submit_batch_with(std::vector<Request> batch,
                               std::function<void(std::vector<Response>)> done) {
  if (batcher_ != nullptr) {
    // Per-record routing through the scheduler: records from one wire
    // frame coalesce with every other connection's traffic; the frame's
    // responses reassemble in order once the last record answers.
    if (batch.empty()) {
      done({});
      return;
    }
    struct FanIn {
      std::vector<Response> out;
      std::atomic<std::size_t> remaining{0};
      std::function<void(std::vector<Response>)> done;
    };
    auto fan = std::make_shared<FanIn>();
    fan->out.resize(batch.size());
    fan->remaining.store(batch.size(), std::memory_order_relaxed);
    fan->done = std::move(done);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batcher_->submit(std::move(batch[i]), [fan, i](Response r) {
        fan->out[i] = std::move(r);
        if (fan->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          fan->done(std::move(fan->out));
        }
      });
    }
    return;
  }
  // Deadline clocks start at submission (time queued counts), matching
  // submit(); captured per request before the batch is enqueued.
  std::vector<Clock::time_point> deadlines;
  deadlines.reserve(batch.size());
  for (const Request& req : batch) deadlines.push_back(deadline_for(req));
  // Echo fields for the shed path, captured before the batch moves into
  // the task (a rejected try_post leaves the task — and the batch inside
  // it — in a moved-from state).
  std::vector<std::pair<std::string, std::string>> echoes;
  echoes.reserve(batch.size());
  for (const Request& req : batch) echoes.emplace_back(op_name(req.op), req.id);

  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  auto task = [this, done, deadlines = std::move(deadlines),
               batch = std::move(batch)]() {
    const GaugeGuard guard{queue_depth_};
    if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kWorkerStall);
    std::vector<Response> out;
    out.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      out.push_back(handle_until(batch[i], deadlines[i]));
    }
    done(std::move(out));
  };
  bool admitted = true;
  if (options_.max_queue_depth == 0) {
    pool_.post(std::move(task));
  } else {
    admitted = pool_.try_post(std::move(task), options_.max_queue_depth);
  }
  if (!admitted) {
    queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    shed_.fetch_add(echoes.size(), std::memory_order_relaxed);
    // A shed frame answers every record: batches are admitted as a unit.
    const std::string why = "server overloaded: queue depth limit " +
                            std::to_string(options_.max_queue_depth) +
                            " reached";
    std::vector<Response> out;
    out.reserve(echoes.size());
    for (const auto& [op, id] : echoes) {
      out.push_back(error_response(why, op, id, "overloaded"));
    }
    done(std::move(out));
  }
}

ServerStats Server::stats() const {
  ServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.errors = errors_.load(std::memory_order_relaxed);
  s.sweeps_computed = sweeps_computed_.load(std::memory_order_relaxed);
  s.coalesced = coalesced_.load(std::memory_order_relaxed);
  const CacheCounters cc = cache_.counters();
  s.cache_hits = cc.hits;
  s.cache_misses = cc.misses;
  s.cache_evictions = cc.evictions;
  s.cache_hit_rate = cc.hit_rate();
  s.cache_size = cache_.size();
  s.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.stale_served = stale_served_.load(std::memory_order_relaxed);
  s.reload_failures = registry_.reload_failures();
  s.models_loaded = registry_.loads();
  s.models_trained = registry_.trainings();
  // Bucket quantiles interpolate toward the bucket's upper bound, so with
  // few samples they can overshoot the exact tracked max; clamp so the
  // reported p50 <= p95 <= p99 <= max always holds.
  const double overall_max = latency_.max() * 1e3;
  s.latency_p50_ms = std::min(latency_.quantile(0.50) * 1e3, overall_max);
  s.latency_p95_ms = std::min(latency_.quantile(0.95) * 1e3, overall_max);
  s.latency_mean_ms = latency_.mean() * 1e3;
  for (std::size_t i = 0; i < kNumOps; ++i) {
    const double verb_max = op_latency_[i].max() * 1e3;
    s.verb_latency[i].count = op_latency_[i].count();
    s.verb_latency[i].p50_ms =
        std::min(op_latency_[i].quantile(0.50) * 1e3, verb_max);
    s.verb_latency[i].p95_ms =
        std::min(op_latency_[i].quantile(0.95) * 1e3, verb_max);
    s.verb_latency[i].p99_ms =
        std::min(op_latency_[i].quantile(0.99) * 1e3, verb_max);
    s.verb_latency[i].max_ms = verb_max;
  }
  if (batcher_ != nullptr) batcher_->fill_stats(s);
  {
    const std::lock_guard<std::mutex> lock(overflow_mutex_);
    if (overflow_source_) s.overflow_closed = overflow_source_();
  }
  if (online_ != nullptr) {
    s.online_enabled = true;
    s.online = online_->counters();
  }
  return s;
}

}  // namespace ccpred::serve
