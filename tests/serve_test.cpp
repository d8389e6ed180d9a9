// Tests for the serving subsystem: LRU cache + latency histogram
// utilities, the line protocol, the artifact registry (fallback training
// and hot reload), and the server itself — including the concurrent-
// correctness property that any interleaving of requests produces the
// same recommendations as serial execution.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/common/latency_histogram.hpp"
#include "ccpred/common/lru_cache.hpp"
#include "ccpred/common/rng.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/guidance/advisor.hpp"
#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"
#include "ccpred/serve/wire.hpp"
#include "ccpred/sim/solver.hpp"
#include "test_util.hpp"

namespace ccpred::serve {
namespace {

namespace fs = std::filesystem;

/// A small fitted GB on real campaign features (4 columns), fast to train.
ml::GradientBoostingRegressor campaign_gb(int stages = 15) {
  static const auto split = test::small_campaign(250);
  ml::GradientBoostingRegressor model(stages);
  model.fit(split.train.features(), split.train.targets());
  return model;
}

// ---------------------------------------------------------------- LruCache

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  EXPECT_EQ(cache.get(1).value(), 10);  // 1 is now most recent
  cache.put(3, 30);                     // evicts 2
  EXPECT_FALSE(cache.get(2).has_value());
  EXPECT_EQ(cache.get(1).value(), 10);
  EXPECT_EQ(cache.get(3).value(), 30);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(LruCacheTest, CountersTrackHitsAndMisses) {
  LruCache<int, int> cache(4);
  EXPECT_FALSE(cache.get(7).has_value());
  cache.put(7, 70);
  EXPECT_TRUE(cache.get(7).has_value());
  EXPECT_TRUE(cache.get(7).has_value());
  EXPECT_EQ(cache.counters().hits, 2u);
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.counters().hit_rate(), 2.0 / 3.0);
}

TEST(LruCacheTest, PutOverwritesAndRefreshes) {
  LruCache<int, int> cache(2);
  cache.put(1, 10);
  cache.put(2, 20);
  cache.put(1, 11);  // overwrite refreshes recency, no eviction
  EXPECT_EQ(cache.size(), 2u);
  cache.put(3, 30);  // evicts 2, not 1
  EXPECT_EQ(cache.get(1).value(), 11);
  EXPECT_FALSE(cache.get(2).has_value());
}

TEST(LruCacheTest, ZeroCapacityRejected) {
  EXPECT_THROW((LruCache<int, int>(0)), Error);
}

// ------------------------------------------------------- LatencyHistogram

TEST(LatencyHistogramTest, QuantilesAreOrderedAndBracketed) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(i * 1e-4);  // 0.1 ms .. 100 ms
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.quantile(0.50);
  const double p95 = h.quantile(0.95);
  const double p99 = h.quantile(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Geometric buckets grow by 1.5x: quantiles are right within that factor.
  EXPECT_NEAR(p50, 0.050, 0.050 * 0.6);
  EXPECT_NEAR(p95, 0.095, 0.095 * 0.6);
  EXPECT_NEAR(h.mean(), 0.05005, 0.002);
}

TEST(LatencyHistogramTest, EmptyAndReset) {
  LatencyHistogram h;
  EXPECT_EQ(h.quantile(0.5), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  h.record(0.01);
  EXPECT_EQ(h.count(), 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.quantile(0.5), 0.0);
}

TEST(LatencyHistogramTest, ConcurrentRecordsAllCounted) {
  LatencyHistogram h;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 1000; ++i) h.record(1e-3);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), 4000u);
}

// ---------------------------------------------------------------- Protocol

TEST(ProtocolTest, ParsesFlatRecords) {
  const auto rec = parse_record(
      R"({"op":"stq","o":134,"v":951,"machine":"aurora","flag":true})");
  EXPECT_EQ(rec.at("op"), "stq");
  EXPECT_EQ(rec.at("o"), "134");
  EXPECT_EQ(rec.at("machine"), "aurora");
  EXPECT_EQ(rec.at("flag"), "true");
}

TEST(ProtocolTest, ParseRequestFillsTypedFields) {
  const auto req = parse_request(
      R"({"op":"budget","o":99,"v":718,"max_node_hours":2.5,"id":"q1"})");
  EXPECT_EQ(req.op, Op::kBudget);
  EXPECT_EQ(req.o, 99);
  EXPECT_EQ(req.v, 718);
  EXPECT_DOUBLE_EQ(req.max_node_hours, 2.5);
  EXPECT_EQ(req.id, "q1");
  EXPECT_TRUE(req.machine.empty());
}

TEST(ProtocolTest, MalformedInputsThrow) {
  EXPECT_THROW(parse_record("not json"), Error);
  EXPECT_THROW(parse_record(R"({"a":1)"), Error);          // unterminated
  EXPECT_THROW(parse_record(R"({"a":{"b":1}})"), Error);   // nested
  EXPECT_THROW(parse_record(R"({"a":1,"a":2})"), Error);   // duplicate
  EXPECT_THROW(parse_record(R"({"a":1} trailing)"), Error);
  EXPECT_THROW(parse_request(R"({"op":"warp","o":1,"v":2})"), Error);
  EXPECT_THROW(parse_request(R"({"op":"stq","o":1})"), Error);  // missing v
  EXPECT_THROW(parse_request(R"({"o":1,"v":2})"), Error);       // missing op
  EXPECT_THROW(parse_request(R"({"op":"stq","o":"x","v":2})"), Error);
}

TEST(ProtocolTest, ResponseRoundTripsThroughParseRecord) {
  Response r;
  r.ok = true;
  r.op = "stq";
  r.id = "a\"b";  // embedded quote must survive escaping
  r.has_recommendation = true;
  r.nodes = 110;
  r.tile = 90;
  r.time_s = 123.456;
  r.node_hours = 3.7718;
  r.model_version = 42;
  r.sweep_size = 480;
  const auto rec = parse_record(format_response(r));
  EXPECT_EQ(rec.at("ok"), "true");
  EXPECT_EQ(rec.at("id"), "a\"b");
  EXPECT_EQ(rec.at("nodes"), "110");
  EXPECT_DOUBLE_EQ(parse_double(rec.at("time_s")), 123.456);
  EXPECT_EQ(rec.at("model_version"), "42");
}

TEST(ProtocolTest, StatsRequestNeedsNoProblemSize) {
  const auto req = parse_request(R"({"op":"stats"})");
  EXPECT_EQ(req.op, Op::kStats);
}

// -------------------------------------------------------------- SweepCache

TEST(SweepCacheTest, StoresAndEvictsAcrossShards) {
  SweepCache cache(4, 2);
  const auto rec = std::make_shared<const guide::Recommendation>();
  for (int o = 1; o <= 8; ++o) {
    cache.put(SweepKey{"aurora", "gb", 1, o, o * 10}, rec);
  }
  EXPECT_LE(cache.size(), 4u);
  const auto counters = cache.counters();
  EXPECT_GE(counters.evictions, 4u);
  // Most recent key should still be resident.
  EXPECT_NE(cache.get(SweepKey{"aurora", "gb", 1, 8, 80}), nullptr);
}

TEST(SweepCacheTest, VersionIsPartOfTheKey) {
  SweepCache cache(8);
  const auto rec = std::make_shared<const guide::Recommendation>();
  cache.put(SweepKey{"aurora", "gb", 1, 134, 951}, rec);
  EXPECT_NE(cache.get(SweepKey{"aurora", "gb", 1, 134, 951}), nullptr);
  EXPECT_EQ(cache.get(SweepKey{"aurora", "gb", 2, 134, 951}), nullptr);
  EXPECT_EQ(cache.get(SweepKey{"aurora", "rf", 1, 134, 951}), nullptr);
}

// ----------------------------------------------------------- ModelRegistry

TEST(ModelRegistryTest, LoadsPublishedArtifact) {
  const auto dir = test::scratch_dir("registry_load");
  const auto model = campaign_gb();
  ModelRegistry registry(dir);
  ml::save_gb(model, registry.artifact_path("aurora", "gb"));

  const auto handle = registry.get("aurora", "gb");
  ASSERT_NE(handle.model, nullptr);
  EXPECT_EQ(handle.version, 1u);
  EXPECT_EQ(registry.trainings(), 0u);
  EXPECT_EQ(registry.loads(), 1u);
  // Bit-identical predictions to the published model.
  const auto split = test::small_campaign(250);
  const auto expect = model.predict(split.test.features());
  const auto got = handle.model->predict(split.test.features());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    ASSERT_EQ(expect[i], got[i]);
  }
  // Unchanged artifact: same version, no reload.
  EXPECT_EQ(registry.get("aurora", "gb").version, 1u);
  EXPECT_EQ(registry.loads(), 1u);
}

TEST(ModelRegistryTest, HotReloadsOnArtifactChange) {
  const auto dir = test::scratch_dir("registry_reload");
  ModelRegistry registry(dir);
  const auto path = registry.artifact_path("aurora", "gb");
  ml::save_gb(campaign_gb(10), path);
  const auto first = registry.get("aurora", "gb");
  EXPECT_EQ(first.version, 1u);

  // Publish a different model and force a visible mtime step (filesystem
  // clocks can be coarse).
  ml::save_gb(campaign_gb(20), path);
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(2));
  const auto second = registry.get("aurora", "gb");
  EXPECT_EQ(second.version, 2u);
  EXPECT_NE(first.model, second.model);
  // The old handle still works (shared ownership).
  EXPECT_TRUE(first.model->is_fitted());
}

TEST(ModelRegistryTest, CyclicRepublishFailsReloadAndServesLastGood) {
  const auto dir = test::scratch_dir("registry_cyclic");
  ModelRegistry registry(dir);
  const auto path = registry.artifact_path("aurora", "gb");
  ml::save_gb(campaign_gb(10), path);
  const auto good = registry.get("aurora", "gb");
  ASSERT_EQ(good.version, 1u);

  // A GB artifact whose one tree's node 2 points back at the root: loading
  // it must fail fast, not grow the compiler's BFS until memory runs out.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "ccpred-gb-v1\n1 0.1 0.5\n3 4\n"
        << "0 0.5 1 1 2\n-1 0 1.5 -1 -1\n1 0.5 2.5 0 1\n0.25 0.25 0.25 0.25\n";
  }
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(2));
  const auto stale = registry.get("aurora", "gb");
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.version, good.version);
  EXPECT_EQ(stale.model, good.model);
  EXPECT_EQ(registry.reload_failures(), 1u);
  EXPECT_EQ(registry.loads(), 1u);
  // The failed publish is memoised: no second attempt until it changes.
  EXPECT_TRUE(registry.get("aurora", "gb").stale);
  EXPECT_EQ(registry.reload_failures(), 1u);
}

TEST(ModelRegistryTest, TrainsAndCachesWhenArtifactMissing) {
  const auto dir = test::scratch_dir("registry_train");
  RegistryOptions opt;
  opt.fallback_rows = 150;  // clipped up to one row per config — still small
  opt.gb_estimators = 6;
  ModelRegistry registry(dir, opt);
  const auto handle = registry.get("aurora", "gb");
  ASSERT_NE(handle.model, nullptr);
  EXPECT_TRUE(handle.model->is_fitted());
  EXPECT_EQ(registry.trainings(), 1u);
  EXPECT_TRUE(fs::exists(registry.artifact_path("aurora", "gb")));
  // Second get serves the cached artifact without retraining.
  registry.get("aurora", "gb");
  EXPECT_EQ(registry.trainings(), 1u);
  // A fresh registry over the same directory loads instead of training.
  ModelRegistry again(dir, opt);
  again.get("aurora", "gb");
  EXPECT_EQ(again.trainings(), 0u);
}

TEST(ModelRegistryTest, RejectsUnknownMachineAndKind) {
  ModelRegistry registry(test::scratch_dir("registry_bad"));
  EXPECT_THROW(registry.get("summit", "gb"), Error);
  EXPECT_THROW(registry.get("aurora", "xgboost"), Error);
}

// ------------------------------------------------------------------ Server

/// Registry + server over one pre-published small GB artifact. Extra
/// ServeOptions (fault injector, max_queue_depth, ...) ride in via `base`;
/// tests that need their own scratch directory pass a distinct `name`.
struct ServerFixture {
  explicit ServerFixture(std::size_t cache_capacity = 32,
                         std::size_t threads = 4, ServeOptions base = {},
                         const std::string& name = "server")
      : dir(test::scratch_dir(name)), registry(dir) {
    ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
    base.threads = threads;
    base.cache_capacity = cache_capacity;
    server = std::make_unique<Server>(registry, base);
  }

  Request stq(int o, int v) {
    Request r;
    r.op = Op::kStq;
    r.o = o;
    r.v = v;
    return r;
  }

  std::string dir;
  ModelRegistry registry;
  std::unique_ptr<Server> server;
};

TEST(ServerTest, MatchesInProcessAdvisorExactly) {
  ServerFixture f;
  const auto handle = f.registry.get("aurora", "gb");
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const guide::Advisor advisor(*handle.model, simulator);

  for (const auto& [o, v] : std::vector<std::pair<int, int>>{
           {44, 260}, {85, 698}, {134, 951}}) {
    Request req = f.stq(o, v);
    const auto stq = f.server->handle(req);
    ASSERT_TRUE(stq.ok) << stq.error;
    const auto expect_stq = advisor.shortest_time(o, v);
    EXPECT_EQ(stq.nodes, expect_stq.config.nodes);
    EXPECT_EQ(stq.tile, expect_stq.config.tile);
    EXPECT_EQ(stq.time_s, expect_stq.predicted_time_s);
    EXPECT_EQ(stq.node_hours, expect_stq.predicted_node_hours);
    EXPECT_EQ(stq.sweep_size, expect_stq.sweep.size());

    req.op = Op::kBq;
    const auto bq = f.server->handle(req);
    const auto expect_bq = advisor.cheapest_run(o, v);
    EXPECT_EQ(bq.nodes, expect_bq.config.nodes);
    EXPECT_EQ(bq.time_s, expect_bq.predicted_time_s);

    req.op = Op::kBudget;
    req.max_node_hours = expect_stq.predicted_node_hours * 0.75;
    const auto budget = f.server->handle(req);
    if (budget.ok) {
      const auto expect_budget =
          advisor.fastest_within_budget(o, v, req.max_node_hours);
      EXPECT_EQ(budget.nodes, expect_budget.config.nodes);
      EXPECT_EQ(budget.time_s, expect_budget.predicted_time_s);
      EXPECT_LE(budget.node_hours, req.max_node_hours);
    } else {
      EXPECT_THROW(advisor.fastest_within_budget(o, v, req.max_node_hours),
                   Error);
    }
  }
}

/// The answer `req` must get, computed without the server: a fresh
/// Advisor sweep of the registry's current model, picked with the
/// advisor's own scans (STQ, BQ, budget), or the simulator's estimate
/// (job). Throws where the server must answer ok=false. The observability
/// fields cache_hit and stale keep their defaults.
Response reference_answer(const Request& req, ModelRegistry& registry) {
  const std::string machine = req.machine.empty() ? "aurora" : req.machine;
  const sim::CcsdSimulator simulator = simulator_for(machine);
  Response r;
  r.ok = true;
  r.op = op_name(req.op);
  r.id = req.id;
  if (req.op == Op::kJob) {
    const auto job = sim::estimate_job(
        simulator,
        sim::RunConfig{.o = req.o, .v = req.v, .nodes = req.nodes,
                       .tile = req.tile});
    r.has_job = true;
    r.iterations = job.iterations;
    r.setup_s = job.setup_s;
    r.iteration_s = job.iteration_s;
    r.total_s = job.total_s;
    r.node_hours = job.node_hours;
    return r;
  }
  const ModelHandle handle =
      registry.get(machine, req.model.empty() ? "gb" : req.model);
  const guide::Advisor advisor(*handle.model, simulator);
  const guide::Recommendation sweep =
      advisor.recommend(req.o, req.v, guide::Objective::kShortestTime);
  guide::SweepPoint pick;
  switch (req.op) {
    case Op::kStq:
      pick = {sweep.config, sweep.predicted_time_s,
              sweep.predicted_node_hours};
      break;
    case Op::kBq:
      pick = guide::Advisor::pick_best(sweep.sweep,
                                       guide::Objective::kNodeHours);
      break;
    case Op::kBudget:
      pick = guide::Advisor::pick_within_budget(sweep, req.max_node_hours);
      break;
    default:
      throw Error("the reference answers stq, bq, budget and job");
  }
  r.has_recommendation = true;
  r.nodes = pick.config.nodes;
  r.tile = pick.config.tile;
  r.time_s = pick.predicted_time_s;
  r.node_hours = pick.predicted_node_hours;
  r.model_version = handle.version;
  r.sweep_size = sweep.sweep.size();
  return r;
}

/// Every ok answer in `got` renders byte for byte like reference_answer
/// (cache_hit normalised); where the reference throws, the server must
/// have answered ok=false.
void expect_matches_reference(const std::vector<Request>& requests,
                              const std::vector<Response>& got,
                              ModelRegistry& registry) {
  ASSERT_EQ(got.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Response want;
    try {
      want = reference_answer(requests[i], registry);
    } catch (const std::exception&) {
      EXPECT_FALSE(got[i].ok) << "request " << i << " has no reference";
      continue;
    }
    ASSERT_TRUE(got[i].ok) << "request " << i << ": " << got[i].error;
    Response a = got[i];
    a.cache_hit = false;
    EXPECT_EQ(format_response(a), format_response(want)) << "request " << i;
  }
}

TEST(ServerTest, RepeatQuestionsHitTheSweepCache) {
  ServerFixture f;
  Request req = f.stq(134, 951);
  const auto first = f.server->handle(req);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.cache_hit);
  req.op = Op::kBq;
  const auto second = f.server->handle(req);
  EXPECT_TRUE(second.cache_hit);  // BQ reuses the STQ sweep
  req.op = Op::kStq;
  const auto third = f.server->handle(req);
  EXPECT_TRUE(third.cache_hit);
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.sweeps_computed, 1u);
  EXPECT_EQ(stats.cache_hits, 2u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.requests, 3u);
}

TEST(ServerTest, ErrorsComeBackAsResponsesAndAreCounted) {
  ServerFixture f;
  Request req = f.stq(-3, 100);  // invalid orbital count
  const auto r = f.server->handle(req);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  Request bad_machine = f.stq(44, 260);
  bad_machine.machine = "summit";
  EXPECT_FALSE(f.server->handle(bad_machine).ok);
  EXPECT_EQ(f.server->stats().errors, 2u);
}

TEST(ServerTest, JobEstimatesMatchTheSimulator) {
  ServerFixture f;
  Request req;
  req.op = Op::kJob;
  req.o = 134;
  req.v = 951;
  req.nodes = 110;
  req.tile = 90;
  const auto r = f.server->handle(req);
  ASSERT_TRUE(r.ok) << r.error;
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const auto job = sim::estimate_job(
      simulator, sim::RunConfig{.o = 134, .v = 951, .nodes = 110, .tile = 90});
  EXPECT_EQ(r.total_s, job.total_s);
  EXPECT_EQ(r.iterations, job.iterations);
  EXPECT_EQ(r.node_hours, job.node_hours);
}

TEST(ServerTest, SubmitRunsThroughTheWorkerPool) {
  ServerFixture f;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(f.server->submit(f.stq(85, 698)));
  for (auto& fut : futures) {
    const auto r = fut.get();
    EXPECT_TRUE(r.ok) << r.error;
  }
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.requests, 8u);
  // One sweep total: the rest were cache hits or coalesced onto the leader.
  EXPECT_EQ(stats.sweeps_computed, 1u);
  EXPECT_EQ(stats.cache_hits + stats.coalesced, 7u);
}

TEST(ServerConcurrencyTest, ParallelRequestsMatchSerialExecution) {
  // The acceptance property: N threads issuing overlapping STQ/BQ/budget
  // requests produce exactly the answers serial execution produces.
  const std::vector<std::pair<int, int>> problems = {
      {44, 260}, {85, 698}, {116, 575}, {134, 951}};

  // Serial reference on its own server instance (fresh cache).
  ServerFixture serial_f(32, 1);
  ServerFixture parallel_f(32, 4);

  const auto make_request = [&](int step) {
    const auto& [o, v] = problems[step % problems.size()];
    Request r;
    r.o = o;
    r.v = v;
    switch (step % 3) {
      case 0: r.op = Op::kStq; break;
      case 1: r.op = Op::kBq; break;
      default:
        r.op = Op::kBudget;
        r.max_node_hours = 100.0;
    }
    return r;
  };

  constexpr int kThreads = 8;
  constexpr int kPerThread = 24;
  std::vector<Response> serial(kThreads * kPerThread);
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    serial[i] = serial_f.server->handle(make_request(i));
  }

  std::vector<Response> parallel(kThreads * kPerThread);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int idx = t * kPerThread + i;
        parallel[idx] = parallel_f.server->handle(make_request(idx));
        if (!parallel[idx].ok) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);

  for (int i = 0; i < kThreads * kPerThread; ++i) {
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    EXPECT_EQ(parallel[i].nodes, serial[i].nodes) << "request " << i;
    EXPECT_EQ(parallel[i].tile, serial[i].tile) << "request " << i;
    EXPECT_EQ(parallel[i].time_s, serial[i].time_s) << "request " << i;
    EXPECT_EQ(parallel[i].node_hours, serial[i].node_hours)
        << "request " << i;
  }

  // Sweep work must not scale with request count: one sweep per problem
  // size (model version is fixed), everything else cache/coalesce.
  const auto stats = parallel_f.server->stats();
  EXPECT_EQ(stats.sweeps_computed, problems.size());
  EXPECT_EQ(stats.errors, 0u);
}

TEST(ServerTest, CacheEvictionKeepsServing) {
  ServerFixture f(/*cache_capacity=*/1, /*threads=*/1);
  const auto a = f.server->handle(f.stq(44, 260));
  const auto b = f.server->handle(f.stq(85, 698));   // evicts (44,260)
  const auto a2 = f.server->handle(f.stq(44, 260));  // recomputed, same answer
  ASSERT_TRUE(a.ok && b.ok && a2.ok);
  EXPECT_EQ(a.nodes, a2.nodes);
  EXPECT_EQ(a.time_s, a2.time_s);
  EXPECT_GE(f.server->stats().cache_evictions, 1u);
  EXPECT_EQ(f.server->stats().sweeps_computed, 3u);
}

// ------------------------------------------------- Advisor sweep reuse

TEST(AdvisorSweepReuseTest, BudgetOverloadMatchesFullSweep) {
  const auto handle_model = campaign_gb();
  const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const guide::Advisor advisor(handle_model, simulator);
  const auto base = advisor.shortest_time(134, 951);

  const auto direct = advisor.fastest_within_budget(134, 951, 2.0);
  const auto reused = guide::Advisor::fastest_within_budget(base, 2.0);
  EXPECT_EQ(direct.config.nodes, reused.config.nodes);
  EXPECT_EQ(direct.config.tile, reused.config.tile);
  EXPECT_EQ(direct.predicted_time_s, reused.predicted_time_s);

  const auto bq = guide::Advisor::from_sweep(base.sweep,
                                             guide::Objective::kNodeHours);
  const auto expect_bq = advisor.cheapest_run(134, 951);
  EXPECT_EQ(bq.config.nodes, expect_bq.config.nodes);
  EXPECT_EQ(bq.predicted_node_hours, expect_bq.predicted_node_hours);

  EXPECT_THROW(guide::Advisor::fastest_within_budget(base, 1e-9), Error);
  EXPECT_THROW(guide::Advisor::from_sweep({}, guide::Objective::kNodeHours),
               Error);
}

// ----------------------------------------------------------- FaultInjector

TEST(FaultInjectorTest, DisabledInjectorNeverFires) {
  FaultInjector off;  // all probabilities zero
  EXPECT_FALSE(off.enabled());
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(off.fire(FaultPoint::kArtifactRead));
    EXPECT_EQ(off.maybe_delay(FaultPoint::kSweepCompute), 0.0);
  }
  EXPECT_EQ(off.injected(FaultPoint::kArtifactRead), 0u);
  EXPECT_EQ(off.injected(FaultPoint::kSweepCompute), 0u);
}

TEST(FaultInjectorTest, SameSeedGivesBitIdenticalSchedule) {
  FaultOptions opt;
  opt.seed = 42;
  opt.artifact_read_failure = 0.3;
  opt.sweep_delay = 0.5;
  opt.worker_stall = 0.25;
  opt.cache_shard_hold = 0.7;
  // Tiny base delays: maybe_delay sleeps for real, keep the test fast.
  opt.sweep_delay_ms = 0.01;
  opt.worker_stall_ms = 0.01;
  opt.cache_shard_hold_ms = 0.01;

  FaultInjector a(opt);
  FaultInjector b(opt);
  const FaultPoint points[] = {FaultPoint::kArtifactRead,
                               FaultPoint::kSweepCompute,
                               FaultPoint::kWorkerStall,
                               FaultPoint::kCacheShard};
  for (const FaultPoint p : points) {
    bool fired_any = false;
    bool spared_any = false;
    for (std::uint64_t n = 0; n < 200; ++n) {
      // The Nth arrival draws the same verdict in both injectors, and the
      // static schedule oracle predicts it without consuming arrivals.
      const bool fa = a.fire(p);
      EXPECT_EQ(fa, b.fire(p)) << fault_point_name(p) << " arrival " << n;
      EXPECT_EQ(fa, FaultInjector::unit_draw(opt.seed, p, n) <
                        a.probability(p))
          << fault_point_name(p) << " arrival " << n;
      fired_any |= fa;
      spared_any |= !fa;
    }
    EXPECT_TRUE(fired_any) << fault_point_name(p);
    EXPECT_TRUE(spared_any) << fault_point_name(p);
    EXPECT_EQ(a.arrivals(p), 200u);
    EXPECT_EQ(a.injected(p), b.injected(p));
  }

  // maybe_delay's actual sleep matches the pure schedule function.
  FaultInjector c(opt);
  for (std::uint64_t n = 0; n < 32; ++n) {
    const double expect =
        FaultInjector::delay_for(opt, FaultPoint::kSweepCompute, n);
    EXPECT_EQ(c.maybe_delay(FaultPoint::kSweepCompute), expect);
  }

  // A different seed produces a different schedule somewhere.
  FaultOptions other = opt;
  other.seed = 43;
  int diffs = 0;
  for (std::uint64_t n = 0; n < 200; ++n) {
    diffs += FaultInjector::delay_for(opt, FaultPoint::kSweepCompute, n) !=
             FaultInjector::delay_for(other, FaultPoint::kSweepCompute, n);
  }
  EXPECT_GT(diffs, 0);
}

TEST(FaultInjectorTest, ProtocolCarriesDeadlineCodeAndStale) {
  const auto req = parse_request(
      R"({"op":"stq","o":44,"v":260,"deadline_ms":250})");
  EXPECT_EQ(req.deadline_ms, 250);
  EXPECT_THROW(
      parse_request(R"({"op":"stq","o":1,"v":2,"deadline_ms":-5})"), Error);

  const Response err = error_response("too slow", "stq", "q9", "deadline");
  const auto rec = parse_record(format_response(err));
  EXPECT_EQ(rec.at("ok"), "false");
  EXPECT_EQ(rec.at("code"), "deadline");
  EXPECT_EQ(rec.at("error"), "too slow");

  Response stale;
  stale.ok = true;
  stale.stale = true;
  EXPECT_EQ(parse_record(format_response(stale)).at("stale"), "true");
}

// ------------------------------------------------- cache property tests

/// Randomised op sequences against an exact reference model: the LruCache
/// must track a textbook LRU list (size, presence, values, counters).
TEST(LruCachePropertyTest, RandomOpsMatchReferenceModel) {
  constexpr std::size_t kCapacity = 5;
  LruCache<int, int> cache(kCapacity);
  std::list<std::pair<int, int>> model;  // front = most recently used
  CacheCounters expect;

  Rng rng(99);
  for (int step = 0; step < 5000; ++step) {
    const int key = static_cast<int>(rng.uniform_int(0, 15));
    const auto it = std::find_if(model.begin(), model.end(),
                                 [&](const auto& e) { return e.first == key; });
    if (rng.bernoulli(0.5)) {
      const auto got = cache.get(key);
      if (it == model.end()) {
        ++expect.misses;
        EXPECT_FALSE(got.has_value()) << "step " << step;
      } else {
        ++expect.hits;
        model.splice(model.begin(), model, it);
        ASSERT_TRUE(got.has_value()) << "step " << step;
        EXPECT_EQ(*got, model.front().second) << "step " << step;
      }
    } else {
      cache.put(key, step);
      if (it == model.end()) {
        model.emplace_front(key, step);
        if (model.size() > kCapacity) {
          model.pop_back();
          ++expect.evictions;
        }
      } else {
        it->second = step;
        model.splice(model.begin(), model, it);
      }
    }
    ASSERT_EQ(cache.size(), model.size()) << "step " << step;
  }
  EXPECT_EQ(cache.counters().hits, expect.hits);
  EXPECT_EQ(cache.counters().misses, expect.misses);
  EXPECT_EQ(cache.counters().evictions, expect.evictions);
  // Every resident key maps to the model's value (gets mirror recency).
  const auto resident = model;  // snapshot: gets below reorder both equally
  for (const auto& [key, value] : resident) {
    const auto got = cache.get(key);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, value);
  }
}

/// Same property one level up: the sharded SweepCache must behave as
/// independent per-shard LRUs with hash-distributed keys.
TEST(SweepCachePropertyTest, RandomOpsMatchShardedReferenceModel) {
  constexpr std::size_t kCapacity = 12;
  constexpr std::size_t kShards = 4;
  SweepCache cache(kCapacity, kShards);
  const std::size_t per_shard = (kCapacity + kShards - 1) / kShards;

  struct RefShard {
    std::list<std::pair<SweepKey, SweepPtr>> items;  // front = MRU
    CacheCounters counters;
  };
  std::vector<RefShard> ref(kShards);
  // Shard assignment mirrors exec::ShardedMemoCache: the bucket hash is
  // re-mixed so shard choice and bucket choice stay uncorrelated.
  const auto shard_of = [&](const SweepKey& k) {
    return exec::splitmix64(SweepKeyHash()(k) + exec::kGoldenGamma) % kShards;
  };

  Rng rng(123);
  const auto random_key = [&] {
    SweepKey k;
    k.machine = rng.bernoulli(0.5) ? "aurora" : "frontier";
    k.kind = "gb";
    k.model_version = static_cast<std::uint64_t>(rng.uniform_int(1, 2));
    k.o = static_cast<int>(rng.uniform_int(1, 6)) * 10;
    k.v = k.o * 5;
    return k;
  };

  for (int step = 0; step < 3000; ++step) {
    const SweepKey key = random_key();
    RefShard& shard = ref[shard_of(key)];
    const auto it =
        std::find_if(shard.items.begin(), shard.items.end(),
                     [&](const auto& e) { return e.first == key; });
    if (rng.bernoulli(0.5)) {
      const SweepPtr got = cache.get(key);
      if (it == shard.items.end()) {
        ++shard.counters.misses;
        EXPECT_EQ(got, nullptr) << "step " << step;
      } else {
        ++shard.counters.hits;
        shard.items.splice(shard.items.begin(), shard.items, it);
        EXPECT_EQ(got, shard.items.front().second) << "step " << step;
      }
    } else {
      const auto value = std::make_shared<const guide::Recommendation>();
      cache.put(key, value);
      if (it == shard.items.end()) {
        shard.items.emplace_front(key, value);
        if (shard.items.size() > per_shard) {
          shard.items.pop_back();
          ++shard.counters.evictions;
        }
      } else {
        it->second = value;
        shard.items.splice(shard.items.begin(), shard.items, it);
      }
    }
  }

  CacheCounters expect;
  std::size_t expect_size = 0;
  for (const RefShard& shard : ref) {
    expect += shard.counters;
    expect_size += shard.items.size();
  }
  EXPECT_EQ(cache.size(), expect_size);
  EXPECT_EQ(cache.counters().hits, expect.hits);
  EXPECT_EQ(cache.counters().misses, expect.misses);
  EXPECT_EQ(cache.counters().evictions, expect.evictions);
  for (const RefShard& shard : ref) {
    for (const auto& [key, value] : shard.items) {
      EXPECT_EQ(cache.get(key), value);  // exact pointer identity
    }
  }
}

// ------------------------------------------------- robustness: deadlines

TEST(ServerRobustnessTest, DeadlineReturnsStructuredErrorAndWarmsCache) {
  FaultOptions fopt;
  fopt.seed = 7;
  fopt.sweep_delay = 1.0;  // every sweep sleeps 150..450 ms
  fopt.sweep_delay_ms = 300.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  ServerFixture f(32, 2, base, "deadline");

  Request req = f.stq(44, 260);
  req.deadline_ms = 20;
  const auto timed_out = f.server->handle(req);
  EXPECT_FALSE(timed_out.ok);
  EXPECT_EQ(timed_out.code, "deadline");
  EXPECT_NE(timed_out.error.find("deadline"), std::string::npos);

  // The abandoned sweep still completes on the sweep pool and warms the
  // cache: asking again (no deadline) coalesces or hits, never recomputes.
  req.deadline_ms = 0;
  const auto answered = f.server->handle(req);
  ASSERT_TRUE(answered.ok) << answered.error;
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.sweeps_computed, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.errors, 1u);
  EXPECT_EQ(fault.injected(FaultPoint::kSweepCompute), 1u);

  // Fault delays never change answers, only timing.
  ServerFixture clean(32, 1, ServeOptions{}, "deadline_clean");
  const auto expect = clean.server->handle(clean.stq(44, 260));
  ASSERT_TRUE(expect.ok);
  EXPECT_EQ(answered.nodes, expect.nodes);
  EXPECT_EQ(answered.tile, expect.tile);
  EXPECT_EQ(answered.time_s, expect.time_s);
  EXPECT_EQ(answered.node_hours, expect.node_hours);
}

// -------------------------------------------- robustness: load shedding

TEST(ServerRobustnessTest, ShedsLoadBeyondMaxQueueDepth) {
  FaultOptions fopt;
  fopt.seed = 3;
  fopt.worker_stall = 1.0;  // the lone worker stalls 100..300 ms per task
  fopt.worker_stall_ms = 200.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  base.max_queue_depth = 2;
  ServerFixture f(32, 1, base, "shed");

  Request req;
  req.op = Op::kStats;
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) futures.push_back(f.server->submit(req));

  int shed = 0;
  int answered = 0;
  for (auto& fut : futures) {
    const auto r = fut.get();
    if (r.ok) {
      ++answered;
    } else {
      EXPECT_EQ(r.code, "overloaded");
      EXPECT_NE(r.error.find("overloaded"), std::string::npos);
      ++shed;
    }
  }
  // The worker is stalled on the first task while the burst arrives, so
  // at most 1 running + 2 queued are admitted; the rest shed immediately.
  EXPECT_GE(shed, 7);
  EXPECT_EQ(shed + answered, 10);
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(answered));
  EXPECT_GE(fault.injected(FaultPoint::kWorkerStall), 1u);
}

// -------------------------------------- robustness: stale-while-revalidate

TEST(ServerRobustnessTest, FailedReloadServesStaleAnswers) {
  ServerFixture f(32, 1, ServeOptions{}, "stale");
  const auto fresh = f.server->handle(f.stq(85, 698));
  ASSERT_TRUE(fresh.ok) << fresh.error;
  EXPECT_FALSE(fresh.stale);

  // Corrupt the artifact and bump its mtime: the reload fails, and the
  // server degrades to the last-good model instead of erroring.
  const auto path = f.registry.artifact_path("aurora", "gb");
  {
    std::ofstream out(path, std::ios::trunc);
    out << "garbage, not a model\n";
  }
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(2));
  const auto stale = f.server->handle(f.stq(85, 698));
  ASSERT_TRUE(stale.ok) << stale.error;
  EXPECT_TRUE(stale.stale);
  EXPECT_EQ(stale.model_version, fresh.model_version);
  EXPECT_EQ(stale.nodes, fresh.nodes);
  EXPECT_EQ(stale.time_s, fresh.time_s);
  EXPECT_EQ(stale.node_hours, fresh.node_hours);

  // The failed mtime is memoised: further requests serve stale without
  // re-attempting the load on every call.
  EXPECT_TRUE(f.server->handle(f.stq(85, 698)).stale);
  auto stats = f.server->stats();
  EXPECT_EQ(stats.reload_failures, 1u);
  EXPECT_EQ(stats.stale_served, 2u);

  // Republishing a good artifact recovers to a fresh (non-stale) version.
  ml::save_gb(campaign_gb(20), path);
  fs::last_write_time(path,
                      fs::last_write_time(path) + std::chrono::seconds(4));
  const auto recovered = f.server->handle(f.stq(85, 698));
  ASSERT_TRUE(recovered.ok) << recovered.error;
  EXPECT_FALSE(recovered.stale);
  EXPECT_EQ(recovered.model_version, fresh.model_version + 1);

  // The degraded-mode counters surface through the stats protocol verb.
  Request sreq;
  sreq.op = Op::kStats;
  const auto sresp = f.server->handle(sreq);
  ASSERT_TRUE(sresp.has_stats);
  const auto rec = parse_record(format_response(sresp));
  EXPECT_EQ(rec.at("reload_failures"), "1");
  EXPECT_EQ(rec.at("stale_served"), "2");
  EXPECT_EQ(rec.at("deadline_exceeded"), "0");
  EXPECT_EQ(rec.at("shed"), "0");
}

// -------------------------------------- robustness: queue depth accounting

TEST(ServerRobustnessTest, QueueDepthReturnsToZeroAfterMixedBurst) {
  FaultOptions fopt;
  fopt.seed = 11;
  fopt.worker_stall = 0.4;
  fopt.worker_stall_ms = 5.0;
  fopt.sweep_delay = 0.4;
  fopt.sweep_delay_ms = 10.0;
  fopt.cache_shard_hold = 0.4;
  fopt.cache_shard_hold_ms = 1.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  base.max_queue_depth = 4;
  ServerFixture f(8, 2, base, "depth");

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 30; ++i) {
    Request r;
    switch (i % 4) {
      case 0: r = f.stq(44, 260); break;
      case 1: r = f.stq(-3, 100); break;  // invalid: fails inside the sweep
      case 2:
        r = f.stq(85, 698);
        r.deadline_ms = 1;  // expires in the queue or mid-sweep
        break;
      default: r.op = Op::kStats;
    }
    futures.push_back(f.server->submit(std::move(r)));
  }
  int answered = 0;
  int shed = 0;
  for (auto& fut : futures) {
    const auto r = fut.get();  // every request resolves exactly once
    ++answered;
    if (!r.ok && r.code == "overloaded") ++shed;
  }
  EXPECT_EQ(answered, 30);

  // The gauge must return to zero even though the burst mixed faulted,
  // deadline-exceeded and shed requests (exception-safe decrement). The
  // decrement runs just after the future resolves, so poll briefly.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.server->stats().queue_depth != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.requests + stats.shed, 30u);
  EXPECT_EQ(stats.shed, static_cast<std::uint64_t>(shed));
}

// ----------------------------------- robustness: expired before dispatch

TEST(ServerRobustnessTest, ExpiredInQueueAnswersBeforeAnyCacheWork) {
  // A request whose deadline expires while it waits for a worker answers
  // code="deadline" before any registry get, cache probe or sweep: alone,
  // as a member of a mixed frame, and inside a scheduler flush.
  FaultOptions fopt;
  fopt.seed = 5;
  fopt.worker_stall = 1.0;  // every request task stalls 100..300 ms
  fopt.worker_stall_ms = 200.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  ServerFixture f(32, 1, base, "expired_in_queue");

  Request expiring = f.stq(44, 260);
  expiring.deadline_ms = 20;
  const auto lone = f.server->submit(expiring).get();
  EXPECT_FALSE(lone.ok);
  EXPECT_EQ(lone.code, "deadline");
  EXPECT_NE(lone.error.find("before dispatch"), std::string::npos)
      << lone.error;
  auto stats = f.server->stats();
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.sweeps_computed, 0u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.errors, 1u);

  Request job;
  job.op = Op::kJob;
  job.o = 134;
  job.v = 951;
  job.nodes = 110;
  job.tile = 90;
  Request stats_req;
  stats_req.op = Op::kStats;
  const std::vector<Request> frame = {f.stq(85, 698), expiring, job,
                                      stats_req};
  const auto submit_frame = [&](Server& server) {
    std::promise<std::vector<Response>> answered;
    server.submit_batch_with(frame, [&](std::vector<Response> out) {
      answered.set_value(std::move(out));
    });
    return answered.get_future().get();
  };
  const auto expect_frame = [&](const std::vector<Response>& out,
                                const ServerStats& before,
                                const ServerStats& after) {
    ASSERT_EQ(out.size(), frame.size());
    EXPECT_TRUE(out[0].ok) << out[0].error;
    EXPECT_EQ(out[1].code, "deadline");
    EXPECT_NE(out[1].error.find("before dispatch"), std::string::npos)
        << out[1].error;
    EXPECT_TRUE(out[2].ok) << out[2].error;
    EXPECT_TRUE(out[3].ok) << out[3].error;
    // Only the live (85, 698) member probed the cache and swept.
    EXPECT_EQ(after.cache_misses - before.cache_misses, 1u);
    EXPECT_EQ(after.cache_hits - before.cache_hits, 0u);
    EXPECT_EQ(after.sweeps_computed - before.sweeps_computed, 1u);
    EXPECT_EQ(after.deadline_exceeded - before.deadline_exceeded, 1u);
  };
  const auto out = submit_frame(*f.server);
  expect_frame(out, stats, f.server->stats());

  // Through the BatchScheduler: the frame's records join the scheduler
  // and the expiring one boards a stalled flush.
  ServeOptions batched = base;
  batched.batch.enabled = true;
  batched.batch.max_hold_us = 50000;
  batched.batch.max_inflight = 1;
  ServerFixture g(32, 2, batched, "expired_in_flush");
  const auto before = g.server->stats();
  const auto flushed = submit_frame(*g.server);
  expect_frame(flushed, before, g.server->stats());
}

// ------------------------------------------------- dynamic batching: lane

TEST(BatchLaneTest, IdenticalColdKeysRunOneSweepSingleFlight) {
  // The dedup regression: N identical cold requests inside one batch must
  // run exactly ONE sweep compute and fan the answer out to every member.
  ServerFixture f(32, 2, ServeOptions{}, "batch_dedup");
  const std::vector<Request> batch(8, f.stq(85, 698));
  const auto out = f.server->dispatch_batch(batch);
  ASSERT_EQ(out.size(), batch.size());
  for (const auto& r : out) {
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.nodes, out[0].nodes);
    EXPECT_EQ(r.tile, out[0].tile);
    EXPECT_EQ(r.time_s, out[0].time_s);
    EXPECT_EQ(r.node_hours, out[0].node_hours);
    EXPECT_EQ(r.sweep_size, out[0].sweep_size);
  }
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.requests, 8u);
  EXPECT_EQ(stats.sweeps_computed, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);  // one probe per unique key, not 8
  EXPECT_EQ(stats.coalesced, 7u);     // the other members rode the leader
  EXPECT_EQ(stats.errors, 0u);
}

TEST(BatchLaneTest, DispatchBatchMatchesSerialBitIdentical) {
  // Mixed verbs, problems, errors and job estimates through the grouped
  // batch lane must answer byte-for-byte like serial handle() calls.
  ServerFixture serial_f(32, 1, ServeOptions{}, "batch_serial_ref");
  ServerFixture batch_f(32, 2, ServeOptions{}, "batch_lane");
  const std::vector<std::pair<int, int>> problems = {
      {44, 260}, {85, 698}, {116, 575}, {134, 951}};

  std::vector<Request> all;
  for (int i = 0; i < 40; ++i) {
    const auto& [o, v] = problems[i % problems.size()];
    Request r;
    r.o = o;
    r.v = v;
    switch (i % 5) {
      case 0: r.op = Op::kStq; break;
      case 1: r.op = Op::kBq; break;
      case 2:
        r.op = Op::kBudget;
        r.max_node_hours = 100.0;
        break;
      case 3:
        r.op = Op::kJob;
        r.nodes = 64;
        r.tile = 80;
        break;
      default:
        r.op = Op::kStq;
        r.o = -3;  // invalid: must error identically, not poison the group
    }
    all.push_back(std::move(r));
  }

  std::vector<Response> serial;
  serial.reserve(all.size());
  for (const auto& r : all) serial.push_back(serial_f.server->handle(r));
  const auto batched = batch_f.server->dispatch_batch(all);
  ASSERT_EQ(batched.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    // cache_hit is observability metadata, not part of the answer: inside
    // one batch a repeated key coalesces onto its leader (cache_hit=false)
    // where a sequential replay would hit the just-warmed cache. Normalize
    // it, then demand byte-identical rendering of everything else.
    Response a = batched[i];
    Response b = serial[i];
    a.cache_hit = b.cache_hit = false;
    EXPECT_EQ(format_response(a), format_response(b)) << "request " << i;
  }

  // handle() and dispatch_batch() share their derivations, so the
  // comparison above cannot catch a wrong answer they both give; the
  // reference is computed without the server.
  expect_matches_reference(all, batched, batch_f.registry);
  expect_matches_reference(all, serial, serial_f.registry);

  // Sweep work must not scale with batch size: one sweep per problem.
  EXPECT_EQ(batch_f.server->stats().sweeps_computed, problems.size());
}

TEST(BatchLaneTest, CountersMatchOneByOne) {
  // handle_batch keeps the accounting of every verb: a mixed batch must
  // leave the counters the same requests leave one by one.
  ServeOptions base;
  base.online.enabled = true;
  ServerFixture one_f(32, 1, base, "counters_one_by_one");
  ServerFixture batch_f(32, 2, base, "counters_batch");

  std::vector<Request> mix;
  mix.push_back(one_f.stq(44, 260));
  mix.push_back(one_f.stq(85, 698));
  mix.back().op = Op::kBq;
  mix.push_back(one_f.stq(134, 951));
  mix.back().op = Op::kBudget;
  mix.back().max_node_hours = 100.0;
  Request job;
  job.op = Op::kJob;
  job.o = 134;
  job.v = 951;
  job.nodes = 110;
  job.tile = 90;
  mix.push_back(job);
  Request report = job;
  report.op = Op::kReport;
  report.wall_times = {12.5};
  mix.push_back(report);
  mix.push_back(Request{});
  mix.back().op = Op::kStats;
  mix.push_back(one_f.stq(-3, 100));  // invalid: an internal error
  mix.push_back(one_f.stq(44, 260));  // repeat

  for (const Request& r : mix) one_f.server->handle(r);
  const auto batched = batch_f.server->dispatch_batch(mix);
  ASSERT_EQ(batched.size(), mix.size());

  const auto a = one_f.server->stats();
  const auto b = batch_f.server->stats();
  EXPECT_EQ(a.requests, mix.size());
  EXPECT_EQ(b.requests, a.requests);
  EXPECT_EQ(a.errors, 1u);
  EXPECT_EQ(b.errors, a.errors);
  EXPECT_EQ(b.deadline_exceeded, a.deadline_exceeded);
  EXPECT_EQ(b.stale_served, a.stale_served);
  for (std::size_t op = 0; op < kNumOps; ++op) {
    EXPECT_EQ(b.verb_latency[op].count, a.verb_latency[op].count)
        << op_name(static_cast<Op>(op));
  }
  EXPECT_EQ(a.verb_latency[static_cast<std::size_t>(Op::kStq)].count, 3u);
  EXPECT_EQ(a.verb_latency[static_cast<std::size_t>(Op::kReport)].count, 1u);
}

// -------------------------------------------- dynamic batching: scheduler

TEST(BatchSchedulerTest, LoneRequestBypassesWithoutHold) {
  ServeOptions base;
  base.batch.enabled = true;
  base.batch.max_batch = 16;
  base.batch.max_hold_us = 50000;  // 50 ms: a held request would be visible
  ServerFixture f(32, 2, base, "batch_bypass");
  ASSERT_TRUE(f.server->handle(f.stq(44, 260)).ok);  // warm the sweep cache

  const auto t0 = std::chrono::steady_clock::now();
  const auto r = f.server->submit(f.stq(44, 260)).get();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_TRUE(r.cache_hit);
  // Far below the hold window: the empty-queue bypass dispatched at once.
  EXPECT_LT(ms, 25.0);
  const auto stats = f.server->stats();
  EXPECT_EQ(stats.batch_bypass, 1u);
  EXPECT_EQ(stats.batched_requests, 0u);
  EXPECT_EQ(stats.batch_flushes, 0u);
}

TEST(BatchSchedulerTest, BurstCoalescesAndStaysBitIdentical) {
  // A burst through the scheduler must coalesce into multi-request flushes
  // (max_inflight=1 keeps the slot busy so arrivals pile up) while every
  // answer stays bit-identical to serial execution.
  ServerFixture serial_f(32, 1, ServeOptions{}, "batch_burst_ref");
  ServeOptions base;
  base.batch.enabled = true;
  base.batch.max_batch = 64;
  base.batch.max_hold_us = 2000;
  base.batch.max_inflight = 1;
  ServerFixture f(32, 2, base, "batch_burst");

  const std::vector<std::pair<int, int>> problems = {
      {44, 260}, {85, 698}, {116, 575}, {134, 951}};
  const auto make_request = [&](int step) {
    const auto& [o, v] = problems[step % problems.size()];
    Request r;
    r.o = o;
    r.v = v;
    switch (step % 3) {
      case 0: r.op = Op::kStq; break;
      case 1: r.op = Op::kBq; break;
      default:
        r.op = Op::kBudget;
        r.max_node_hours = 100.0;
    }
    return r;
  };

  constexpr int kRequests = 48;
  std::vector<Response> serial(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    serial[i] = serial_f.server->handle(make_request(i));
  }

  std::vector<std::future<Response>> futures;
  futures.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(f.server->submit(make_request(i)));
  }
  std::vector<Request> requests;
  std::vector<Response> burst;
  for (int i = 0; i < kRequests; ++i) {
    const auto r = futures[i].get();
    ASSERT_TRUE(r.ok) << "request " << i << ": " << r.error;
    EXPECT_EQ(r.nodes, serial[i].nodes) << "request " << i;
    EXPECT_EQ(r.tile, serial[i].tile) << "request " << i;
    EXPECT_EQ(r.time_s, serial[i].time_s) << "request " << i;
    EXPECT_EQ(r.node_hours, serial[i].node_hours) << "request " << i;
    requests.push_back(make_request(i));
    burst.push_back(r);
  }
  expect_matches_reference(requests, burst, f.registry);

  const auto stats = f.server->stats();
  // Every dispatched request is either in a >=2 flush or a bypass.
  EXPECT_EQ(stats.batched_requests + stats.batch_bypass,
            static_cast<std::uint64_t>(kRequests));
  EXPECT_GE(stats.batch_flushes, 1u);
  EXPECT_GE(stats.batched_requests, 2u);
  EXPECT_GE(stats.batch_size_p95, stats.batch_size_p50);
  EXPECT_GE(stats.batch_size_p50, 1.0);
  EXPECT_EQ(stats.sweeps_computed, problems.size());
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kRequests));
}

TEST(BatchSchedulerTest, DeadlineAwareFlushBeatsHold) {
  // The EDF rule: a queued request carrying a deadline is force-flushed at
  // deadline - hold even while every dispatch slot is busy — it must never
  // burn its deadline waiting out the hold window behind a slow batch.
  FaultOptions fopt;
  fopt.seed = 7;
  fopt.sweep_delay = 1.0;  // every sweep sleeps 150..450 ms
  fopt.sweep_delay_ms = 300.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  base.batch.enabled = true;
  base.batch.max_batch = 8;
  base.batch.max_hold_us = 200000;  // 200 ms: FIFO hold would burn B
  base.batch.max_inflight = 1;      // A occupies the only dispatch slot
  ServerFixture f(32, 4, base, "batch_edf");

  // Warm (44,260) through handle() (pays one stalled sweep).
  ASSERT_TRUE(f.server->handle(f.stq(44, 260)).ok);

  // A: cold key; bypasses into the single slot and stalls >= 150 ms.
  auto slow = f.server->submit(f.stq(134, 951));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  // B: warm key, 100 ms deadline. Its EDF trigger (deadline - hold) is
  // already in the past, so the flusher dispatches it immediately even
  // though A holds the slot; the pool runs it on a free worker.
  Request b = f.stq(44, 260);
  b.deadline_ms = 100;
  const auto t0 = std::chrono::steady_clock::now();
  const auto rb = f.server->submit(b).get();
  const double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
  ASSERT_TRUE(rb.ok) << rb.error;
  EXPECT_TRUE(rb.cache_hit);
  EXPECT_LT(ms, 100.0);

  const auto ra = slow.get();
  ASSERT_TRUE(ra.ok) << ra.error;
  EXPECT_EQ(f.server->stats().deadline_exceeded, 0u);
}

TEST(BatchSchedulerTest, ShedsBeyondMaxQueueDepthWhenSlotsBusy) {
  FaultOptions fopt;
  fopt.seed = 3;
  fopt.sweep_delay = 1.0;  // park the slot on a slow sweep
  fopt.sweep_delay_ms = 200.0;
  FaultInjector fault(fopt);
  ServeOptions base;
  base.fault_injector = &fault;
  base.max_queue_depth = 2;
  base.batch.enabled = true;
  base.batch.max_batch = 8;
  base.batch.max_hold_us = 100000;  // long hold so the queue fills first
  base.batch.max_inflight = 1;
  ServerFixture f(32, 2, base, "batch_shed");

  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 10; ++i) {
    futures.push_back(f.server->submit(f.stq(134, 951)));
  }
  int shed = 0;
  int answered = 0;
  for (auto& fut : futures) {
    const auto r = fut.get();
    if (r.ok) {
      ++answered;
    } else {
      EXPECT_EQ(r.code, "overloaded");
      ++shed;
    }
  }
  EXPECT_EQ(shed + answered, 10);
  EXPECT_GE(shed, 1);
  EXPECT_EQ(f.server->stats().shed, static_cast<std::uint64_t>(shed));
}

// ---------------------------------------------- stats: tails + overflow

TEST(ServerStatsTest, VerbTailLatencySurfacesInStatsAndJson) {
  ServeOptions base;
  base.batch.enabled = true;
  ServerFixture f(32, 2, base, "stats_tail");
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(f.server->submit(f.stq(85, 698)).get().ok);
  }
  const auto stats = f.server->stats();
  const auto& stq = stats.verb_latency[static_cast<int>(Op::kStq)];
  EXPECT_EQ(stq.count, 6u);
  // Interpolated quantiles may exceed the exact max, so assert ordering
  // among quantiles and positivity of the exact max only.
  EXPECT_GE(stq.p99_ms, stq.p95_ms);
  EXPECT_GE(stq.p95_ms, stq.p50_ms);
  EXPECT_GT(stq.max_ms, 0.0);
  EXPECT_GE(stats.batch_bypass + stats.batch_flushes, 1u);

  Request sr;
  sr.op = Op::kStats;
  const auto resp = f.server->handle(sr);
  ASSERT_TRUE(resp.has_stats);
  const std::string json = format_response(resp);
  for (const char* field :
       {"lat_stq_p99_ms", "lat_stq_max_ms", "batched_requests",
        "batch_flushes", "batch_bypass", "batch_size_p50", "batch_size_p95",
        "overflow_closed"}) {
    EXPECT_NE(json.find(field), std::string::npos) << field;
  }
}

TEST(ServerStatsTest, OverflowSourceFeedsStats) {
  ServerFixture f(8, 1, ServeOptions{}, "overflow_src");
  EXPECT_EQ(f.server->stats().overflow_closed, 0u);
  f.server->set_overflow_source([] { return std::uint64_t{7}; });
  EXPECT_EQ(f.server->stats().overflow_closed, 7u);
}

Response stats_response_of(const ServerStats& stats) {
  Response r;
  r.ok = true;
  r.op = "stats";
  r.id = "golden";
  r.has_stats = true;
  r.stats = stats;
  return r;
}

/// A snapshot that exercises the encoders' gates: online learning off and
/// only one verb served.
ServerStats sparse_stats() {
  ServerStats s;
  s.requests = 7;
  s.cache_hit_rate = 0.5;
  auto& verb = s.verb_latency[static_cast<int>(Op::kBq)];
  verb.count = 7;
  verb.p50_ms = 0.5;
  verb.p99_ms = 3.75;
  return s;
}

std::string hex(const std::string& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 15]);
  }
  return out;
}

// Captured from the hand-written encoders the schema table replaced: the
// table-driven encoders must reproduce these bytes exactly.
constexpr const char* kFullJson =
    "{\"ok\":true,\"op\":\"stats\",\"id\":\"golden\",\"requests\":101,"
    "\"errors\":102,\"sweeps_computed\":103,\"coalesced\":104,"
    "\"cache_hits\":105,\"cache_misses\":106,\"cache_evictions\":107,"
    "\"cache_hit_rate\":0.4976525822,\"cache_size\":108,"
    "\"queue_depth\":109,\"deadline_exceeded\":110,\"shed\":111,"
    "\"stale_served\":112,\"reload_failures\":113,"
    "\"models_loaded\":115,\"models_trained\":116,"
    "\"latency_p50_ms\":1.25,\"latency_p95_ms\":2.5,"
    "\"latency_mean_ms\":0.3333333333,\"batched_requests\":117,"
    "\"batch_flushes\":118,\"batch_bypass\":119,"
    "\"batch_size_p50\":3.75,\"batch_size_p95\":7.5,"
    "\"overflow_closed\":120,\"lat_stq_count\":200,"
    "\"lat_stq_p50_ms\":10.125,\"lat_stq_p95_ms\":10.25,"
    "\"lat_stq_p99_ms\":10.5,\"lat_stq_max_ms\":10.75,"
    "\"lat_bq_count\":201,\"lat_bq_p50_ms\":20.125,"
    "\"lat_bq_p95_ms\":20.25,\"lat_bq_p99_ms\":20.5,"
    "\"lat_bq_max_ms\":20.75,\"lat_budget_count\":202,"
    "\"lat_budget_p50_ms\":30.125,\"lat_budget_p95_ms\":30.25,"
    "\"lat_budget_p99_ms\":30.5,\"lat_budget_max_ms\":30.75,"
    "\"lat_job_count\":203,\"lat_job_p50_ms\":40.125,"
    "\"lat_job_p95_ms\":40.25,\"lat_job_p99_ms\":40.5,"
    "\"lat_job_max_ms\":40.75,\"lat_stats_count\":204,"
    "\"lat_stats_p50_ms\":50.125,\"lat_stats_p95_ms\":50.25,"
    "\"lat_stats_p99_ms\":50.5,\"lat_stats_max_ms\":50.75,"
    "\"lat_report_count\":205,\"lat_report_p50_ms\":60.125,"
    "\"lat_report_p95_ms\":60.25,\"lat_report_p99_ms\":60.5,"
    "\"lat_report_max_ms\":60.75,\"online_reports\":301,"
    "\"online_measurements\":302,\"online_duplicates\":303,"
    "\"online_rejected\":304,\"online_buffered\":305,"
    "\"online_rolling_mape\":0.0625,\"online_drift_events\":306,"
    "\"online_incremental_updates\":307,\"online_refits\":308,"
    "\"online_shadow_evals\":309,\"online_promotions\":310,"
    "\"online_promotions_rejected\":311,"
    "\"online_cache_invalidated\":312}";
constexpr const char* kSparseJson =
    "{\"ok\":true,\"op\":\"stats\",\"id\":\"golden\",\"requests\":7,"
    "\"errors\":0,\"sweeps_computed\":0,\"coalesced\":0,\"cache_hits\":0,"
    "\"cache_misses\":0,\"cache_evictions\":0,\"cache_hit_rate\":0.5,"
    "\"cache_size\":0,\"queue_depth\":0,\"deadline_exceeded\":0,"
    "\"shed\":0,\"stale_served\":0,\"reload_failures\":0,"
    "\"models_loaded\":0,\"models_trained\":0,\"latency_p50_ms\":0,"
    "\"latency_p95_ms\":0,\"latency_mean_ms\":0,\"batched_requests\":0,"
    "\"batch_flushes\":0,\"batch_bypass\":0,\"batch_size_p50\":0,"
    "\"batch_size_p95\":0,\"overflow_closed\":0,\"lat_bq_count\":7,"
    "\"lat_bq_p50_ms\":0.5,\"lat_bq_p95_ms\":0,\"lat_bq_p99_ms\":3.75,"
    "\"lat_bq_max_ms\":0}";
constexpr const char* kFullFrame =
    "c3435042010101003d0200002105000000737461747306000000676f6c64656e"
    "0000000000000000650000000000000066000000000000006700000000000000"
    "680000000000000069000000000000006a000000000000006b00000000000000"
    "b56954378ad9df3f6c000000000000006d000000000000006e00000000000000"
    "6f00000000000000700000000000000071000000000000007300000000000000"
    "7400000000000000000000000000f43f0000000000000440555555555555d53f"
    "7500000000000000760000000000000077000000000000000000000000000e40"
    "0000000000001e407800000000000000c8000000000000000000000000402440"
    "000000000080244000000000000025400000000000802540c900000000000000"
    "0000000000203440000000000040344000000000008034400000000000c03440"
    "ca000000000000000000000000203e400000000000403e400000000000803e40"
    "0000000000c03e40cb0000000000000000000000001044400000000000204440"
    "00000000004044400000000000604440cc000000000000000000000000104940"
    "000000000020494000000000004049400000000000604940cd00000000000000"
    "0000000000104e400000000000204e400000000000404e400000000000604e40"
    "012d010000000000002e010000000000002f0100000000000030010000000000"
    "003101000000000000000000000000b03f320100000000000033010000000000"
    "0034010000000000003501000000000000360100000000000037010000000000"
    "003801000000000000";
constexpr const char* kSparseFrame =
    "c343504201010100d50100002105000000737461747306000000676f6c64656e"
    "0000000000000000070000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000000e03f000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000700000000000000"
    "000000000000e03f00000000000000000000000000000e400000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "00";

TEST(ServerStatsTest, StatsEncodingsMatchGoldenBytes) {
  EXPECT_EQ(format_response(stats_response_of(test::full_stats())),
            kFullJson);
  EXPECT_EQ(format_response(stats_response_of(sparse_stats())), kSparseJson);
  EXPECT_EQ(hex(wire::encode_response_frame(
                {stats_response_of(test::full_stats())})),
            kFullFrame);
  EXPECT_EQ(
      hex(wire::encode_response_frame({stats_response_of(sparse_stats())})),
      kSparseFrame);
}

TEST(ServerStatsTest, EveryFieldSurvivesTheWire) {
  for (const ServerStats& stats : {test::full_stats(), sparse_stats()}) {
    const std::string frame =
        wire::encode_response_frame({stats_response_of(stats)});
    wire::FrameHeader header;
    std::string error;
    ASSERT_EQ(wire::probe_frame(
                  reinterpret_cast<const unsigned char*>(frame.data()),
                  frame.size(), &header, &error),
              wire::FrameStatus::kHeader)
        << error;
    const auto decoded = wire::decode_response_frame(
        header, reinterpret_cast<const unsigned char*>(frame.data()) +
                    wire::kHeaderBytes);
    ASSERT_EQ(decoded.size(), 1u);
    ASSERT_TRUE(decoded[0].has_stats);
    // Re-encoding the decoded snapshot reproduces every byte (so every
    // field, including the ones the JSON gates hide), and the JSON lines
    // agree too.
    EXPECT_EQ(wire::encode_response_frame(decoded), frame);
    EXPECT_EQ(format_response(decoded[0]),
              format_response(stats_response_of(stats)));
    EXPECT_EQ(decoded[0].stats.online_enabled, stats.online_enabled);
    EXPECT_EQ(decoded[0].stats.online.cache_invalidated,
              stats.online.cache_invalidated);
    const auto& dv = decoded[0].stats.verb_latency[static_cast<int>(Op::kBq)];
    EXPECT_EQ(dv.count, stats.verb_latency[static_cast<int>(Op::kBq)].count);
    EXPECT_EQ(dv.max_ms, stats.verb_latency[static_cast<int>(Op::kBq)].max_ms);
  }
}

TEST(EventLoopOptionsTest, EffectiveInbufResolvesZeroToDerivedDefault) {
  EventLoopOptions opt;
  opt.max_line_bytes = 100;
  EXPECT_EQ(opt.effective_inbuf_bytes(), 100 + wire::kMaxFramePayload * 2);
  opt.max_inbuf_bytes = 4096;
  EXPECT_EQ(opt.effective_inbuf_bytes(), 4096u);
}

TEST(LatencyHistogramTest, TracksExactMax) {
  LatencyHistogram h;
  EXPECT_EQ(h.max(), 0.0);
  h.record(0.002);
  h.record(0.125);
  h.record(0.0004);
  EXPECT_EQ(h.max(), 0.125);
  h.reset();
  EXPECT_EQ(h.max(), 0.0);
}

}  // namespace
}  // namespace ccpred::serve
