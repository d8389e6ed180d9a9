// Chaos stress test for the serving layer: N client threads fire a mixed
// STQ/BQ/budget/job/stats workload at a Server while a seeded FaultInjector
// trips artifact-read failures, sweep slowdowns, worker stalls and cache
// shard contention, and a publisher thread keeps bumping the artifact's
// mtime to force hot-reload attempts mid-run. The properties under test:
//
//  * no crash, and every request is answered exactly once;
//  * every non-faulted (ok) answer is bit-identical to a fault-free
//    serial run of the same request — faults change timing, never values;
//  * every faulted answer is structured: code is one of
//    "overloaded" | "deadline" | "internal";
//  * the stats counters add up exactly (requests + shed == issued,
//    errors == non-shed failures, deadline/stale counts match what the
//    clients observed, queue_depth drains to zero).
//
// The whole fault schedule is a pure function of the seed, so a failing
// seed reproduces. CCPRED_CHAOS_FAST=1 shrinks the workload for
// sanitizer CI jobs.
//
// Two online-learning variants ride on the same machinery: a report storm
// with promotion disabled (ingestion faults must never move a served
// answer) and a promotion race with aggressive refit/promote faults
// (liveness, exactly-one answer, monotone model versions per thread).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/serve/fault_injector.hpp"
#include "ccpred/serve/fleet.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"
#include "test_util.hpp"

namespace ccpred::serve {
namespace {

namespace fs = std::filesystem;

bool fast_mode() { return std::getenv("CCPRED_CHAOS_FAST") != nullptr; }
int per_thread_requests() { return fast_mode() ? 12 : 40; }
constexpr int kClientThreads = 4;

/// One small fitted GB, shared by every server in the file (loads of the
/// same bytes yield bit-identical models, so republishing it mid-run
/// changes versions but never answers).
const ml::GradientBoostingRegressor& campaign_gb() {
  static const auto* model = [] {
    const auto split = test::small_campaign(250);
    auto* m = new ml::GradientBoostingRegressor(15);
    m->fit(split.train.features(), split.train.targets());
    return m;
  }();
  return *model;
}

/// The deterministic mixed workload: request i is the same object in the
/// baseline run and in every chaos run.
Request make_request(int i) {
  static const std::vector<std::pair<int, int>> problems = {
      {44, 260}, {85, 698}, {116, 575}, {134, 951}};
  const auto& [o, v] = problems[static_cast<std::size_t>(i) % problems.size()];
  Request r;
  r.o = o;
  r.v = v;
  r.id = std::to_string(i);
  switch (i % 8) {
    case 0:
    case 1: r.op = Op::kStq; break;
    case 2: r.op = Op::kBq; break;
    case 3:
      r.op = Op::kBudget;
      r.max_node_hours = 100.0;  // generous: feasible for every problem
      break;
    case 4:
      r.op = Op::kJob;
      r.nodes = 64;
      r.tile = 80;
      break;
    case 5:
      r.op = Op::kStq;
      r.deadline_ms = 1;  // expires in the queue or mid-sweep
      break;
    case 6: r.op = Op::kStats; break;
    default: r.op = Op::kStq;
  }
  return r;
}

/// Registry + server over a pre-published artifact.
struct ChaosFixture {
  ChaosFixture(const std::string& name, ServeOptions opt)
      : dir(test::scratch_dir(name)), registry(dir) {
    ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
    server = std::make_unique<Server>(registry, opt);
  }

  std::string dir;
  ModelRegistry registry;
  std::unique_ptr<Server> server;
};

/// Fault-free serial reference answers, computed once.
const std::vector<Response>& baseline() {
  static const auto* answers = [] {
    ServeOptions opt;
    opt.threads = 1;
    ChaosFixture f("baseline", opt);
    auto* out = new std::vector<Response>();
    const int total = kClientThreads * per_thread_requests();
    for (int i = 0; i < total; ++i) {
      Request req = make_request(i);
      req.deadline_ms = 0;  // deadlines change timing, never values
      out->push_back(f.server->handle(req));
    }
    return out;
  }();
  return *answers;
}

/// ok answers must be bit-identical to the fault-free serial reference.
void expect_matches_baseline(const Response& got, int i) {
  const Response& want = baseline()[static_cast<std::size_t>(i)];
  ASSERT_TRUE(want.ok) << "baseline request " << i << ": " << want.error;
  if (want.has_recommendation) {
    EXPECT_EQ(got.nodes, want.nodes) << "request " << i;
    EXPECT_EQ(got.tile, want.tile) << "request " << i;
    EXPECT_EQ(got.time_s, want.time_s) << "request " << i;
    EXPECT_EQ(got.node_hours, want.node_hours) << "request " << i;
  }
  if (want.has_job) {
    EXPECT_EQ(got.iterations, want.iterations) << "request " << i;
    EXPECT_EQ(got.total_s, want.total_s) << "request " << i;
    EXPECT_EQ(got.node_hours, want.node_hours) << "request " << i;
  }
}

/// Runs the whole workload against `server` from kClientThreads threads,
/// submitting in bursts so the bounded queue actually sheds. Returns the
/// responses indexed by request number.
std::vector<Response> run_clients(Server& server) {
  const int per_thread = per_thread_requests();
  std::vector<Response> responses(
      static_cast<std::size_t>(kClientThreads * per_thread));
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      constexpr int kBurst = 8;
      for (int base = 0; base < per_thread; base += kBurst) {
        std::vector<std::pair<int, std::future<Response>>> burst;
        for (int j = base; j < std::min(base + kBurst, per_thread); ++j) {
          const int i = t * per_thread + j;
          burst.emplace_back(i, server.submit(make_request(i)));
        }
        for (auto& [i, fut] : burst) {
          responses[static_cast<std::size_t>(i)] = fut.get();
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  return responses;
}

void run_chaos_at_seed(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  FaultOptions fopt;
  fopt.seed = seed;
  fopt.artifact_read_failure = 0.5;
  fopt.sweep_delay = 0.5;
  fopt.sweep_delay_ms = 10.0;
  fopt.worker_stall = 0.3;
  fopt.worker_stall_ms = 5.0;
  fopt.cache_shard_hold = 0.3;
  fopt.cache_shard_hold_ms = 2.0;
  FaultInjector fault(fopt);

  ServeOptions opt;
  opt.threads = 4;
  opt.cache_capacity = 64;
  opt.max_queue_depth = 6;
  opt.fault_injector = &fault;
  ChaosFixture f("seed_" + std::to_string(seed), opt);
  // The registry is external to the server (shared across servers in the
  // daemon), so its injection point is armed separately.
  f.registry.set_fault_injector(&fault);
  const auto artifact = f.registry.artifact_path("aurora", "gb");

  // Publisher: republish the same bytes with a bumped mtime, forcing
  // hot-reload attempts that the injector fails half the time — the
  // degraded path must keep serving identical (stale) answers.
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    int bumps = 0;
    const int max_bumps = fast_mode() ? 4 : 10;
    while (!done.load() && bumps < max_bumps) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      fs::last_write_time(artifact, fs::last_write_time(artifact) +
                                        std::chrono::seconds(2));
      ++bumps;
    }
  });

  const auto responses = run_clients(*f.server);
  done.store(true);
  publisher.join();

  // Classify what the clients saw.
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t internal = 0;
  std::uint64_t stale = 0;
  for (int i = 0; i < static_cast<int>(responses.size()); ++i) {
    const Response& r = responses[static_cast<std::size_t>(i)];
    if (r.ok) {
      if (r.stale) ++stale;
      expect_matches_baseline(r, i);
    } else if (r.code == "overloaded") {
      ++shed;
    } else if (r.code == "deadline") {
      ++deadline;
    } else {
      // Injected artifact-read failures surface as structured internal
      // errors while the registry has no last-good model yet.
      EXPECT_EQ(r.code, "internal") << "request " << i << ": " << r.error;
      ++internal;
    }
    EXPECT_FALSE(!r.ok && r.error.empty()) << "request " << i;
  }

  // The counters must add up exactly against what the clients observed.
  const auto total = static_cast<std::uint64_t>(responses.size());
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.server->stats().queue_depth != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.requests + stats.shed, total);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.errors, deadline + internal);
  EXPECT_EQ(stats.deadline_exceeded, deadline);
  EXPECT_EQ(stats.stale_served, stale);
  EXPECT_EQ(stats.queue_depth, 0u);

  // Every injection point was exercised; the delay points fired for sure
  // (hundreds of deterministic draws at p >= 0.3).
  for (const FaultPoint p :
       {FaultPoint::kArtifactRead, FaultPoint::kSweepCompute,
        FaultPoint::kWorkerStall, FaultPoint::kCacheShard}) {
    EXPECT_GT(fault.arrivals(p), 0u) << fault_point_name(p);
  }
  EXPECT_GT(fault.injected(FaultPoint::kWorkerStall), 0u);
  EXPECT_GT(fault.injected(FaultPoint::kCacheShard), 0u);
  EXPECT_EQ(stats.reload_failures,
            fault.injected(FaultPoint::kArtifactRead));
}

TEST(ServeChaosTest, NoFaultConcurrentRunMatchesSerialBaseline) {
  ServeOptions opt;
  opt.threads = 4;
  opt.cache_capacity = 64;
  ChaosFixture f("nofault", opt);
  const auto responses = run_clients(*f.server);
  for (int i = 0; i < static_cast<int>(responses.size()); ++i) {
    const Response& r = responses[static_cast<std::size_t>(i)];
    // deadline_ms=1 requests may legitimately expire even without faults.
    if (!r.ok) {
      EXPECT_EQ(r.code, "deadline") << "request " << i << ": " << r.error;
      continue;
    }
    EXPECT_FALSE(r.stale) << "request " << i;
    expect_matches_baseline(r, i);
  }
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.requests, responses.size());
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.stale_served, 0u);
  EXPECT_EQ(stats.reload_failures, 0u);
}

TEST(ServeChaosTest, Seed1) { run_chaos_at_seed(1); }
TEST(ServeChaosTest, Seed7) { run_chaos_at_seed(7); }
TEST(ServeChaosTest, Seed42) { run_chaos_at_seed(42); }

// ------------------------------------------------------------ report storm

/// A feasible configuration + measurement for reporter thread `t`, report
/// `j`. Wall times are all distinct (no two reports dedup against each
/// other) and strictly positive.
Request make_report(int t, int j) {
  Request r;
  r.op = Op::kReport;
  r.o = 44;
  r.v = 260;
  r.nodes = (j % 2 == 0) ? 5 : 15;
  r.tile = 40 + 10 * (j % 8);
  r.id = "rep" + std::to_string(t) + "_" + std::to_string(j);
  r.wall_times = {19.0 + 0.01 * (t * 1000 + j)};
  return r;
}

/// Online learning enabled but promotion disabled (the refit threshold is
/// unreachable): a storm of report ingestions racing the standard mixed
/// workload under report/worker/cache faults must not perturb a single
/// served answer — ingestion rides the hot path, but the serving model
/// never changes.
void run_report_storm_at_seed(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  FaultOptions fopt;
  fopt.seed = seed;
  fopt.report_ingest = 0.5;
  fopt.report_ingest_ms = 2.0;
  fopt.worker_stall = 0.3;
  fopt.worker_stall_ms = 5.0;
  fopt.cache_shard_hold = 0.3;
  fopt.cache_shard_hold_ms = 2.0;
  FaultInjector fault(fopt);

  ServeOptions opt;
  opt.threads = 4;
  opt.cache_capacity = 64;
  opt.max_queue_depth = 6;
  opt.fault_injector = &fault;
  opt.online.enabled = true;
  opt.online.min_refit_rows = 1u << 30;  // never refit, never promote
  opt.online.gp_max_rows = 64;           // keep the surrogate cheap
  ChaosFixture f("storm_" + std::to_string(seed), opt);

  const int reports_per_thread = fast_mode() ? 20 : 60;
  constexpr int kReporters = 2;
  std::vector<std::thread> reporters;
  std::atomic<std::uint64_t> report_failures{0};
  for (int t = 0; t < kReporters; ++t) {
    reporters.emplace_back([&, t] {
      for (int j = 0; j < reports_per_thread; ++j) {
        const Response r = f.server->handle(make_report(t, j));
        if (!r.ok || !r.has_report || r.accepted != 1) {
          report_failures.fetch_add(1);
        }
      }
    });
  }
  const auto responses = run_clients(*f.server);
  for (auto& t : reporters) t.join();
  EXPECT_EQ(report_failures.load(), 0u);

  // Not one served answer moved: the storm is observable only in timing
  // and in the online counters.
  std::uint64_t shed = 0;
  for (int i = 0; i < static_cast<int>(responses.size()); ++i) {
    const Response& r = responses[static_cast<std::size_t>(i)];
    if (r.ok) {
      EXPECT_FALSE(r.stale) << "request " << i;
      expect_matches_baseline(r, i);
    } else {
      EXPECT_TRUE(r.code == "overloaded" || r.code == "deadline")
          << "request " << i << ": " << r.code << " " << r.error;
      shed += r.code == "overloaded";
    }
  }

  const std::uint64_t total_reports =
      static_cast<std::uint64_t>(kReporters) * reports_per_thread;
  const auto c = f.server->online()->counters();
  EXPECT_EQ(c.reports, total_reports);
  EXPECT_EQ(c.measurements, total_reports);
  EXPECT_EQ(c.duplicates, 0u);
  EXPECT_EQ(c.rejected, 0u);
  EXPECT_EQ(c.buffered, total_reports);
  EXPECT_EQ(c.refits, 0u);
  EXPECT_EQ(c.promotions, 0u);
  EXPECT_EQ(c.cache_invalidated, 0u);
  EXPECT_GT(c.incremental_updates, 0u);  // the GP surrogate grew on-line

  // The gauge decrements just after each future resolves; poll briefly.
  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.server->stats().queue_depth != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.requests + stats.shed,
            static_cast<std::uint64_t>(responses.size()) + total_reports);
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.verb_latency[static_cast<std::size_t>(Op::kReport)].count,
            total_reports);

  // Every ingest consulted the report injection point; half fired.
  EXPECT_EQ(fault.arrivals(FaultPoint::kReportIngest), total_reports);
  EXPECT_GT(fault.injected(FaultPoint::kReportIngest), 0u);
}

TEST(ServeChaosTest, ReportStormSeed1) { run_report_storm_at_seed(1); }
TEST(ServeChaosTest, ReportStormSeed7) { run_report_storm_at_seed(7); }
TEST(ServeChaosTest, ReportStormSeed42) { run_report_storm_at_seed(42); }

// --------------------------------------------------------- promotion race

/// Aggressive refit/promotion churn under stall + artifact-read faults:
/// reporters feed a shifted regime that trips drift almost immediately
/// while clients keep asking STQ. Answers legitimately change when a
/// candidate wins, so there is no bit-identity here — the properties are
/// liveness, exactly-one answer per request, per-thread monotone model
/// versions and self-consistent counters.
void run_promotion_race_at_seed(std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  FaultOptions fopt;
  fopt.seed = seed;
  fopt.artifact_read_failure = 0.3;
  fopt.worker_stall = 0.3;
  fopt.worker_stall_ms = 2.0;
  fopt.refit_stall = 0.5;
  fopt.refit_stall_ms = 10.0;
  fopt.promotion_race = 0.5;
  fopt.promotion_race_ms = 5.0;
  FaultInjector fault(fopt);

  const auto dir = test::scratch_dir("race_" + std::to_string(seed));
  RegistryOptions ropt;
  ropt.fallback_rows = 160;
  ropt.gb_estimators = 60;
  ModelRegistry registry(dir, ropt);
  ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
  registry.set_fault_injector(&fault);

  ServeOptions opt;
  opt.threads = 4;
  opt.cache_capacity = 64;
  opt.fault_injector = &fault;
  opt.online.enabled = true;
  opt.online.synchronous = false;  // refits race the request threads
  opt.online.drift.window = 16;
  opt.online.drift.min_samples = 4;
  opt.online.drift.mape_threshold = 0.05;
  opt.online.min_refit_rows = 8;
  opt.online.holdout = 4;
  opt.online.gp_max_rows = 64;
  Server server(registry, opt);

  const int reports_per_thread = fast_mode() ? 24 : 60;
  const int queries_per_thread = fast_mode() ? 24 : 60;
  constexpr int kReporters = 2;
  constexpr int kQueriers = 2;
  std::atomic<std::uint64_t> bad{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kReporters; ++t) {
    threads.emplace_back([&, t] {
      for (int j = 0; j < reports_per_thread; ++j) {
        const Response r = server.handle(make_report(t, j));
        // An ingest that draws an injected artifact-read failure before
        // any model loaded legitimately errors; it must still come back
        // as a structured response, never vanish or crash.
        if (r.ok ? !r.has_report : r.code != "internal") bad.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < kQueriers; ++t) {
    threads.emplace_back([&, t] {
      std::uint64_t last_version = 0;
      for (int j = 0; j < queries_per_thread; ++j) {
        Request q;
        q.op = (j % 3 == 2) ? Op::kBq : Op::kStq;
        q.o = 44 + 41 * (j % 2);  // alternate two problem sizes
        q.v = 260 + 438 * (j % 2);
        q.id = "q" + std::to_string(t) + "_" + std::to_string(j);
        const Response r = server.handle(q);
        if (!r.ok) {
          // Same as above: only a structured first-load failure is legal.
          if (r.code != "internal") bad.fetch_add(1);
        } else {
          // Sequential requests from one thread can never see the model
          // version move backwards: loads are serialized and versions
          // only grow.
          EXPECT_GE(r.model_version, last_version)
              << "thread " << t << " request " << j;
          last_version = r.model_version;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  server.online()->wait_idle();
  EXPECT_EQ(bad.load(), 0u);

  // Counter consistency: every judged candidate was either promoted or
  // rejected; every promotion invalidated at least zero shards; a refit
  // that died on an injected artifact read judged nothing.
  const auto c = server.online()->counters();
  EXPECT_GE(c.refits, 1u);
  EXPECT_LE(c.shadow_evals, c.refits);
  EXPECT_LE(c.promotions + c.promotions_rejected, c.shadow_evals);
  EXPECT_EQ(c.reports,
            static_cast<std::uint64_t>(kReporters) * reports_per_thread);
  EXPECT_GT(fault.arrivals(FaultPoint::kRefitStall), 0u);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kReporters) * reports_per_thread +
                static_cast<std::uint64_t>(kQueriers) * queries_per_thread);
  EXPECT_EQ(stats.queue_depth, 0u);
  EXPECT_EQ(stats.online.promotions, c.promotions);
}

TEST(ServeChaosTest, PromotionRaceSeed1) { run_promotion_race_at_seed(1); }
TEST(ServeChaosTest, PromotionRaceSeed7) { run_promotion_race_at_seed(7); }
TEST(ServeChaosTest, PromotionRaceSeed42) { run_promotion_race_at_seed(42); }

// ------------------------------------------------------------- shard chaos
//
// Whole-shard death: the same mixed workload fired at a 3-shard
// ShardFleet while the injector's kShardKill / kShardRestart points tear
// shards down mid-traffic and revive them. Properties: every request is
// answered exactly once (a double completion would double-set a promise
// and throw), every ok answer is bit-identical to the single-server
// fault-free baseline (failover changes WHICH shard computes, never the
// bytes), at least one shard survives, and after restarting the casualties
// a serial re-run over rejoined empty-cache shards still matches the
// baseline exactly.

void run_shard_chaos_at_seed(std::uint64_t seed) {
  SCOPED_TRACE("shard seed " + std::to_string(seed));
  FaultOptions fopt;
  fopt.seed = seed;
  fopt.shard_kill = 0.05;
  fopt.shard_restart = 0.10;
  FaultInjector fault(fopt);

  FleetOptions opt;
  opt.shards = 3;
  opt.serve.threads = 2;
  opt.serve.cache_capacity = 64;
  opt.fault_injector = &fault;
  const std::string dir =
      test::scratch_dir("shard_seed_" + std::to_string(seed));
  ModelRegistry registry(dir);
  ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
  ShardFleet fleet(registry, opt);

  const int per_thread = per_thread_requests();
  const int total = kClientThreads * per_thread;
  std::vector<Response> responses(static_cast<std::size_t>(total));
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int j = 0; j < per_thread; ++j) {
        const int i = t * per_thread + j;
        Request req = make_request(i);
        req.deadline_ms = 0;  // timing faults are not under test here
        // Exactly-once is load-bearing: if the fleet ever completed a
        // request twice the second set_value would throw right here.
        std::promise<Response> promise;
        auto future = promise.get_future();
        fleet.submit_with(std::move(req), [&promise](Response r) {
          promise.set_value(std::move(r));
        });
        responses[static_cast<std::size_t>(i)] = future.get();
      }
    });
  }
  for (auto& c : clients) c.join();

  std::uint64_t unavailable = 0;
  for (int i = 0; i < total; ++i) {
    const Response& r = responses[static_cast<std::size_t>(i)];
    if (r.ok) {
      expect_matches_baseline(r, i);
    } else {
      // The only legitimate failure is the (extreme-interleaving) window
      // where the preference walk observed every slot dead at once.
      EXPECT_EQ(r.code, "unavailable") << "request " << i << ": " << r.error;
      ++unavailable;
    }
  }

  const FleetCounters during = fleet.counters();
  EXPECT_GE(during.alive, 1u) << "the last live shard must never die";
  EXPECT_GT(fault.injected(FaultPoint::kShardKill), 0u)
      << "seed never exercised a shard kill — raise shard_kill";
  // fire() counts every verdict; kill_shard refuses dead and last-live
  // targets, so actual deaths are bounded by (and usually below) it.
  EXPECT_GT(during.kills, 0u);
  EXPECT_LE(during.kills, fault.injected(FaultPoint::kShardKill));
  EXPECT_LE(during.restarts, fault.injected(FaultPoint::kShardRestart));
  EXPECT_EQ(during.unrouteable, unavailable);
  EXPECT_EQ(during.shards, 3u);

  // Revive the casualties: rejoined shards start with an EMPTY cache but
  // must produce bit-identical answers. Chaos stays armed during the
  // re-run (more kills may fire), which is the point — failover and
  // rejoin must be invisible in the values.
  for (std::size_t i = 0; i < fleet.shard_count(); ++i) {
    if (!fleet.alive(i)) {
      EXPECT_TRUE(fleet.restart_shard(i));
    }
  }
  EXPECT_EQ(fleet.counters().alive, 3u);

  for (int i = 0; i < total; ++i) {
    Request req = make_request(i);
    req.deadline_ms = 0;
    const Response r = fleet.handle(req);
    if (!r.ok) {
      EXPECT_EQ(r.code, "unavailable") << "request " << i << ": " << r.error;
      continue;
    }
    expect_matches_baseline(r, i);
  }
}

TEST(ServeChaosTest, ShardStormSeed1) { run_shard_chaos_at_seed(1); }
TEST(ServeChaosTest, ShardStormSeed7) { run_shard_chaos_at_seed(7); }
TEST(ServeChaosTest, ShardStormSeed42) { run_shard_chaos_at_seed(42); }

// ---------------------------------------------------------- shutdown order
//
// Regression for the shutdown-order deadlock: with one request worker held
// by a long stall, cold requests queue behind it while the server is torn
// down. Each must still run its sweep when the worker wakes, so the sweep
// pool has to outlive the request pool. With the opposite order the
// request worker posted into an already-joined sweep pool and waited
// forever, and so did the teardown. No oversubscription is needed: the
// stall makes the interleaving deterministic.

/// Runs `teardown` on a helper thread and exits the test binary with a
/// failure if it is still blocked after `limit`, so a shutdown deadlock
/// fails in bounded time instead of hanging the suite.
void teardown_within(std::chrono::seconds limit,
                     const std::function<void()>& teardown) {
  std::promise<void> finished;
  std::future<void> done = finished.get_future();
  std::thread runner([&] {
    teardown();
    finished.set_value();
  });
  if (done.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr,
                 "FATAL: teardown still blocked after %lld s: shutdown "
                 "deadlock\n",
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  runner.join();
}

constexpr auto kTeardownLimit = std::chrono::seconds(60);

FaultOptions stall_every_worker() {
  FaultOptions fopt;
  fopt.worker_stall = 1.0;
  fopt.worker_stall_ms = 200.0;
  return fopt;
}

/// Cold STQ questions on distinct keys.
std::vector<Request> cold_requests() {
  std::vector<Request> out;
  for (const auto& [o, v] : std::vector<std::pair<int, int>>{
           {44, 260}, {85, 698}, {116, 575}, {134, 951}}) {
    Request r;
    r.op = Op::kStq;
    r.o = o;
    r.v = v;
    r.id = std::to_string(out.size());
    out.push_back(r);
  }
  return out;
}

TEST(ShutdownOrderTest, ServerTeardownAnswersColdRequestsQueuedBehindAStall) {
  FaultInjector fault(stall_every_worker());
  ServeOptions opt;
  opt.threads = 1;
  opt.fault_injector = &fault;
  ChaosFixture f("teardown_stall", opt);

  std::vector<std::promise<Response>> answers(cold_requests().size());
  for (Request& req : cold_requests()) {
    auto& promise = answers[std::stoul(req.id)];
    f.server->submit_with(std::move(req), [&promise](Response r) {
      promise.set_value(std::move(r));
    });
  }
  teardown_within(kTeardownLimit, [&] { f.server.reset(); });
  for (auto& promise : answers) {
    const Response r = promise.get_future().get();
    EXPECT_TRUE(r.ok) << r.error;
  }
}

TEST(ShutdownOrderTest, ShardKillAnswersColdRequestsQueuedBehindAStall) {
  FaultInjector fault(stall_every_worker());
  FleetOptions opt;
  opt.shards = 2;
  opt.serve.threads = 1;
  opt.serve.fault_injector = &fault;
  const std::string dir = test::scratch_dir("kill_stall");
  ModelRegistry registry(dir);
  ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
  ShardFleet fleet(registry, opt);

  // Every request that lands on the victim shard queues behind its one
  // stalled worker; the kill then drops the shard's last pin.
  const int victim = fleet.route_of(cold_requests().front());
  std::vector<std::promise<Response>> answers;
  answers.reserve(cold_requests().size());
  for (Request& req : cold_requests()) {
    if (fleet.route_of(req) != victim) continue;
    answers.emplace_back();
    auto& promise = answers.back();
    fleet.submit_with(std::move(req), [&promise](Response r) {
      promise.set_value(std::move(r));
    });
  }
  teardown_within(kTeardownLimit, [&] {
    EXPECT_TRUE(fleet.kill_shard(static_cast<std::size_t>(victim)));
  });
  for (auto& promise : answers) {
    const Response r = promise.get_future().get();
    EXPECT_TRUE(r.ok) << r.error;
  }
}

// ------------------------------------------------------------- batch storm
//
// Dynamic batching under fire: half the client threads route through the
// BatchScheduler (submit_with) while the other half stay on the serial
// handle() path, sharing the cache and single-flight map, with worker
// stalls and sweep delays injected. Properties: every request is answered
// exactly once (a double completion double-sets a promise and throws),
// every answer is bit-identical to the unbatched fault-free serial
// baseline, and the scheduler's counters reconcile exactly with what the
// clients pushed through it.

void run_batch_storm_at_seed(std::uint64_t seed) {
  SCOPED_TRACE("batch seed " + std::to_string(seed));
  FaultOptions fopt;
  fopt.seed = seed;
  fopt.worker_stall = 0.3;
  fopt.worker_stall_ms = 5.0;
  fopt.sweep_delay = 0.3;
  fopt.sweep_delay_ms = 5.0;
  FaultInjector fault(fopt);

  ServeOptions opt;
  opt.threads = 4;
  opt.cache_capacity = 64;
  opt.fault_injector = &fault;
  opt.batch.enabled = true;
  opt.batch.max_batch = 16;
  opt.batch.max_hold_us = 1000;
  ChaosFixture f("batch_seed_" + std::to_string(seed), opt);

  const int per_thread = per_thread_requests();
  const int total = kClientThreads * per_thread;
  std::vector<Response> responses(static_cast<std::size_t>(total));
  std::atomic<std::uint64_t> scheduled{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int j = 0; j < per_thread; ++j) {
        const int i = t * per_thread + j;
        Request req = make_request(i);
        req.deadline_ms = 0;  // hold-vs-deadline is covered in serve_test
        if (t % 2 == 0) {
          // Batched client. Exactly-once is load-bearing: if a flush ever
          // answered a member twice the second set_value would throw.
          std::promise<Response> promise;
          auto future = promise.get_future();
          f.server->submit_with(std::move(req), [&promise](Response r) {
            promise.set_value(std::move(r));
          });
          scheduled.fetch_add(1, std::memory_order_relaxed);
          responses[static_cast<std::size_t>(i)] = future.get();
        } else {
          // Unbatched client through handle(), concurrently.
          responses[static_cast<std::size_t>(i)] = f.server->handle(req);
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  for (int i = 0; i < total; ++i) {
    const Response& r = responses[static_cast<std::size_t>(i)];
    ASSERT_TRUE(r.ok) << "request " << i << ": " << r.error;
    expect_matches_baseline(r, i);
  }

  const auto give_up =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (f.server->stats().queue_depth != 0 &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const ServerStats stats = f.server->stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(total));
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
  // Scheduler accounting: every request pushed through the batcher came
  // out in exactly one dispatch — a >=2 flush or a bypass, never both.
  EXPECT_EQ(stats.batched_requests + stats.batch_bypass, scheduled.load());
  if (stats.batch_flushes > 0) {
    EXPECT_GE(stats.batch_size_p95, stats.batch_size_p50);
    EXPECT_GE(stats.batch_size_p50, 1.0);
  }
  EXPECT_GT(fault.injected(FaultPoint::kWorkerStall), 0u);
  // Only a handful of sweep-compute arrivals happen (one per unique
  // problem), so whether the delay fires is seed luck — just require the
  // injection point was reached.
  EXPECT_GT(fault.arrivals(FaultPoint::kSweepCompute), 0u);
}

TEST(ServeChaosTest, BatchStormSeed1) { run_batch_storm_at_seed(1); }
TEST(ServeChaosTest, BatchStormSeed7) { run_batch_storm_at_seed(7); }
TEST(ServeChaosTest, BatchStormSeed42) { run_batch_storm_at_seed(42); }

// Batching on every shard of a fleet while kShardKill / kShardRestart tear
// shards down mid-traffic: failover may change WHICH shard's scheduler
// coalesces a request, never the bytes of its answer.

void run_fleet_batch_storm_at_seed(std::uint64_t seed) {
  SCOPED_TRACE("fleet batch seed " + std::to_string(seed));
  FaultOptions fopt;
  fopt.seed = seed;
  fopt.shard_kill = 0.05;
  fopt.shard_restart = 0.10;
  fopt.worker_stall = 0.2;
  fopt.worker_stall_ms = 2.0;
  FaultInjector fault(fopt);

  FleetOptions opt;
  opt.shards = 3;
  opt.serve.threads = 2;
  opt.serve.cache_capacity = 64;
  opt.serve.batch.enabled = true;
  opt.serve.batch.max_batch = 16;
  opt.serve.batch.max_hold_us = 500;
  opt.fault_injector = &fault;
  const std::string dir =
      test::scratch_dir("fleet_batch_seed_" + std::to_string(seed));
  ModelRegistry registry(dir);
  ml::save_gb(campaign_gb(), registry.artifact_path("aurora", "gb"));
  ShardFleet fleet(registry, opt);

  const int per_thread = per_thread_requests();
  const int total = kClientThreads * per_thread;
  std::vector<Response> responses(static_cast<std::size_t>(total));
  std::vector<std::thread> clients;
  for (int t = 0; t < kClientThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int j = 0; j < per_thread; ++j) {
        const int i = t * per_thread + j;
        Request req = make_request(i);
        req.deadline_ms = 0;
        std::promise<Response> promise;
        auto future = promise.get_future();
        fleet.submit_with(std::move(req), [&promise](Response r) {
          promise.set_value(std::move(r));
        });
        responses[static_cast<std::size_t>(i)] = future.get();
      }
    });
  }
  for (auto& c : clients) c.join();

  std::uint64_t unavailable = 0;
  for (int i = 0; i < total; ++i) {
    const Response& r = responses[static_cast<std::size_t>(i)];
    if (r.ok) {
      expect_matches_baseline(r, i);
    } else {
      EXPECT_EQ(r.code, "unavailable") << "request " << i << ": " << r.error;
      ++unavailable;
    }
  }

  const FleetCounters during = fleet.counters();
  EXPECT_GE(during.alive, 1u);
  EXPECT_EQ(during.unrouteable, unavailable);

  // The aggregated stats fold every surviving shard's scheduler counters;
  // a killed shard takes its counts with it, so the sum is a lower bound
  // that must stay consistent with itself and non-trivial.
  const ServerStats agg = fleet.aggregated_stats().value();
  EXPECT_GE(agg.batched_requests + agg.batch_bypass, 1u);
  EXPECT_LE(agg.batched_requests + agg.batch_bypass, agg.requests);
  if (agg.batch_flushes + agg.batch_bypass > 0) {
    EXPECT_GE(agg.batch_size_p95, agg.batch_size_p50);
  }
}

TEST(ServeChaosTest, FleetBatchStormSeed1) { run_fleet_batch_storm_at_seed(1); }
TEST(ServeChaosTest, FleetBatchStormSeed7) { run_fleet_batch_storm_at_seed(7); }
TEST(ServeChaosTest, FleetBatchStormSeed42) {
  run_fleet_batch_storm_at_seed(42);
}

}  // namespace
}  // namespace ccpred::serve
