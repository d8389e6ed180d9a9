#include "ccpred/serve/server.hpp"

#include <algorithm>
#include <array>
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

Response Server::answer_one(const Request& req) {
  if (req.op == Op::kStats) return stats_response(req.id, stats());
  Response r;
  r.op = op_name(req.op);
  r.id = req.id;

  const std::string machine =
      req.machine.empty() ? options_.default_machine : req.machine;
  const sim::RunConfig cfg{
      .o = req.o, .v = req.v, .nodes = req.nodes, .tile = req.tile};

  if (req.op == Op::kReport) {
    if (online_ == nullptr) {
      return error_response("online learning is disabled on this server",
                            r.op, r.id, "bad_request");
    }
    const std::string kind =
        req.model.empty() ? options_.default_model : req.model;
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

  // Op::kJob: the simulator's estimate for one explicit configuration.
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

Response Server::handle(const Request& req) {
  const Clock::time_point deadline = deadline_for(req);
  return std::move(handle_batch({&req, 1}, {&deadline, 1}).front());
}

std::vector<Response> Server::dispatch_batch(
    const std::vector<Request>& batch) {
  std::vector<Clock::time_point> deadlines;
  deadlines.reserve(batch.size());
  for (const Request& req : batch) deadlines.push_back(deadline_for(req));
  return handle_batch(batch, deadlines);
}

std::vector<Response> Server::handle_batch(
    std::span<const Request> batch,
    std::span<const Clock::time_point> deadlines) {
  const Stopwatch timer;
  requests_.fetch_add(batch.size(), std::memory_order_relaxed);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Member {
    bool answered = false;
    std::size_t group = kNone;  ///< kNone for stats/job/report
    std::size_t key = kNone;    ///< index into keys
  };
  struct Group {
    std::string machine;
    std::string kind;
    ModelHandle handle;
    std::string error;  ///< why the handle could not be acquired
  };
  struct Key {
    SweepKey key;
    SweepPtr cached;  ///< null = cold
    std::shared_future<SweepResult> future;  ///< set for cold keys
    /// Non-null where this batch leads the key's sweep.
    std::shared_ptr<std::promise<SweepResult>> promise;
    bool claimed = false;  ///< a member already counted the led miss
  };
  std::vector<Response> out(batch.size());
  std::vector<Member> members(batch.size());
  std::vector<Group> groups;
  std::vector<Key> keys;

  // Pass 1, in batch order. A member whose deadline expired while it was
  // queued answers now, before any registry get, cache probe or sweep.
  // STQ/BQ/budget members join their (machine, kind) group, in order of
  // first appearance; stats/job/report share no work.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Request& req = batch[i];
    if (deadlines[i] != Clock::time_point::max() &&
        Clock::now() >= deadlines[i]) {
      deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
      out[i] = error_response("deadline of " + std::to_string(req.deadline_ms) +
                                  " ms exceeded before dispatch",
                              op_name(req.op), req.id, "deadline");
      members[i].answered = true;
      continue;
    }
    if (req.op != Op::kStq && req.op != Op::kBq && req.op != Op::kBudget) {
      continue;
    }
    const std::string& machine =
        req.machine.empty() ? options_.default_machine : req.machine;
    const std::string& kind =
        req.model.empty() ? options_.default_model : req.model;
    auto g = std::find_if(groups.begin(), groups.end(), [&](const Group& x) {
      return x.machine == machine && x.kind == kind;
    });
    if (g == groups.end()) {
      g = groups.insert(groups.end(), Group{machine, kind, {}, {}});
    }
    members[i].group = static_cast<std::size_t>(g - groups.begin());
  }

  // Pass 2, per group: one model handle, then the members deduped onto
  // unique (O, V) keys, one cache probe and one single-flight join per
  // key. The cold keys a group leads are swept one after another in ONE
  // sweep-pool task; each settles as soon as its own sweep finishes, so a
  // failing key (e.g. an infeasible problem) fails alone. Keys already in
  // flight elsewhere are waited on.
  for (std::size_t g = 0; g < groups.size(); ++g) {
    Group& group = groups[g];
    try {
      group.handle = registry_.get(group.machine, group.kind);
    } catch (const std::exception& e) {
      group.error = e.what();
      continue;
    }
    const std::size_t first = keys.size();
    std::map<std::pair<int, int>, std::size_t> key_index;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (members[i].group != g) continue;
      const Request& req = batch[i];
      const auto [it, inserted] =
          key_index.try_emplace(std::pair<int, int>{req.o, req.v}, keys.size());
      if (inserted) {
        Key& key = keys.emplace_back();
        key.key = SweepKey{group.machine, group.kind, group.handle.version,
                           req.o, req.v};
        key.cached = cache_.get(key.key);
      }
      members[i].key = it->second;
    }
    std::vector<SweepKey> lead_keys;
    std::vector<std::shared_ptr<std::promise<SweepResult>>> lead_promises;
    {
      const std::lock_guard<std::mutex> lock(inflight_mutex_);
      for (std::size_t k = first; k < keys.size(); ++k) {
        Key& key = keys[k];
        if (key.cached != nullptr) continue;
        const auto it = inflight_.find(key.key);
        if (it != inflight_.end()) {
          key.future = it->second;
          continue;
        }
        key.promise = std::make_shared<std::promise<SweepResult>>();
        key.future = key.promise->get_future().share();
        inflight_.emplace(key.key, key.future);
        lead_keys.push_back(key.key);
        lead_promises.push_back(key.promise);
      }
    }
    if (lead_keys.empty()) continue;
    // A failed sweep resolves the shared future with an error STRING, not
    // an exception_ptr — see SweepResult.
    auto sweep_task = [this, handle = group.handle, lead_keys, lead_promises] {
      if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kSweepCompute);
      for (std::size_t k = 0; k < lead_keys.size(); ++k) {
        settle_sweep(lead_keys[k], *lead_promises[k],
                     compute_sweep(handle, lead_keys[k]));
      }
    };
    try {
      sweep_pool_.post(std::move(sweep_task));
    } catch (const std::exception& e) {
      for (std::size_t k = 0; k < lead_keys.size(); ++k) {
        settle_sweep(lead_keys[k], *lead_promises[k],
                     SweepResult{nullptr, e.what()});
      }
    }
  }

  // Pass 3, in batch order: answer every member still open. The first
  // member of a key this batch leads is the sweep's "miss"; every other
  // member that waits on a sweep coalesced onto an existing flight.
  // BQ/budget answers scan the whole swept grid; the pick_* scans are
  // pure, so each distinct (key, verb, budget) derivation runs once per
  // batch and its winning point fans out.
  std::vector<std::tuple<std::size_t, Op, double>> derived_keys;
  std::vector<guide::SweepPoint> derived_points;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Member& member = members[i];
    if (member.answered) continue;
    const Request& req = batch[i];
    try {
      if (member.group == kNone) {
        out[i] = answer_one(req);
        continue;
      }
      const Group& group = groups[member.group];
      if (!group.error.empty()) throw Error(group.error);
      Key& key = keys[member.key];
      SweepPtr sweep = key.cached;
      if (sweep == nullptr) {
        if (key.promise != nullptr && !key.claimed) {
          key.claimed = true;
        } else {
          coalesced_.fetch_add(1, std::memory_order_relaxed);
        }
        if (deadlines[i] != Clock::time_point::max() &&
            key.future.wait_until(deadlines[i]) ==
                std::future_status::timeout) {
          deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
          out[i] = error_response(
              "deadline of " + std::to_string(req.deadline_ms) +
                  " ms exceeded; the sweep continues in the background",
              op_name(req.op), req.id, "deadline");
          continue;
        }
        const SweepResult& result = key.future.get();
        if (result.sweep == nullptr) throw Error(result.error);
        sweep = result.sweep;
      }
      guide::SweepPoint pt;
      if (req.op == Op::kStq) {
        // The cached sweep IS the shortest-time answer.
        pt.config = sweep->config;
        pt.predicted_time_s = sweep->predicted_time_s;
        pt.predicted_node_hours = sweep->predicted_node_hours;
      } else {
        const double budget = req.op == Op::kBudget ? req.max_node_hours : 0.0;
        const std::tuple<std::size_t, Op, double> derivation{member.key,
                                                             req.op, budget};
        const auto memo =
            std::find(derived_keys.begin(), derived_keys.end(), derivation);
        if (memo != derived_keys.end()) {
          pt = derived_points[memo - derived_keys.begin()];
        } else {
          pt = req.op == Op::kBq
                   ? guide::Advisor::pick_best(sweep->sweep,
                                               guide::Objective::kNodeHours)
                   : guide::Advisor::pick_within_budget(*sweep, budget);
          derived_keys.push_back(derivation);
          derived_points.push_back(pt);
        }
      }
      if (group.handle.stale) {
        stale_served_.fetch_add(1, std::memory_order_relaxed);
      }
      Response& r = out[i];
      r.op = op_name(req.op);
      r.id = req.id;
      r.ok = true;
      r.stale = group.handle.stale;
      r.has_recommendation = true;
      r.nodes = pt.config.nodes;
      r.tile = pt.config.tile;
      r.time_s = pt.predicted_time_s;
      r.node_hours = pt.predicted_node_hours;
      r.model_version = group.handle.version;
      r.sweep_size = sweep->sweep.size();
      r.cache_hit = key.cached != nullptr;
    } catch (const std::exception& e) {
      out[i] = error_response(e.what(), op_name(req.op), req.id, "internal");
    }
  }

  // The one accounting block for every verb. Every member completes when
  // the batch does, so one timestamp and one bulk record per verb.
  std::array<std::uint64_t, kNumOps> op_counts{};
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ++op_counts[static_cast<std::size_t>(batch[i].op)];
    if (!out[i].ok) ++failed;
  }
  errors_.fetch_add(failed, std::memory_order_relaxed);
  const double elapsed_s = timer.elapsed_s();
  latency_.record_n(elapsed_s, batch.size());
  for (std::size_t op = 0; op < kNumOps; ++op) {
    op_latency_[op].record_n(elapsed_s, op_counts[op]);
  }
  return out;
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
  std::vector<Request> frame;
  frame.push_back(std::move(request));
  admit_frame(std::move(frame),
              [done = std::move(done)](std::vector<Response> out) {
                done(std::move(out.front()));
              });
}

void Server::submit_batch_with(std::vector<Request> batch,
                               std::function<void(std::vector<Response>)> done) {
  if (batcher_ == nullptr) {
    admit_frame(std::move(batch), std::move(done));
    return;
  }
  // Per-record routing through the scheduler: records from one wire frame
  // coalesce with every other connection's traffic; the frame's responses
  // reassemble in order once the last record answers.
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
}

void Server::admit_frame(std::vector<Request> batch,
                         std::function<void(std::vector<Response>)> done) {
  // Deadline clocks start at submission (time queued counts); captured
  // per request before the frame is enqueued.
  std::vector<Clock::time_point> deadlines;
  deadlines.reserve(batch.size());
  for (const Request& req : batch) deadlines.push_back(deadline_for(req));
  // Echo fields for the shed path, captured before the frame moves into
  // the task (a rejected try_post leaves the task — and the frame inside
  // it — in a moved-from state).
  std::vector<std::pair<std::string, std::string>> echoes;
  echoes.reserve(batch.size());
  for (const Request& req : batch) echoes.emplace_back(op_name(req.op), req.id);

  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  auto task = [this, done, deadlines = std::move(deadlines),
               batch = std::move(batch)]() {
    const GaugeGuard guard{queue_depth_};
    if (fault_ != nullptr) fault_->maybe_delay(FaultPoint::kWorkerStall);
    done(handle_batch(batch, deadlines));
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
    // A shed frame answers every record: frames are admitted as a unit.
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
