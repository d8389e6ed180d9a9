// Tests for the serving fleet: the consistent-hash ring (stable assignment
// under membership churn), the in-process ShardFleet (failover to a live
// replica, kill/restart rejoining with an empty cache but bit-identical
// answers), the epoll EventLoopServer end to end over real sockets
// (response ordering, JSON/binary interleaving on one connection, garbage
// input, oversized declared lengths, mid-frame disconnects) and the fleet
// over process shards reached through the binary wire.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/fault_injector.hpp"
#include "ccpred/serve/fleet.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"
#include "ccpred/serve/wire.hpp"
#include "test_util.hpp"

namespace ccpred::serve {
namespace {

// ------------------------------------------------------------------ HashRing

std::vector<std::uint64_t> probe_keys(std::size_t n) {
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    keys.push_back(HashRing::key_hash("aurora", "gb", static_cast<int>(i % 211),
                                      static_cast<int>(i)));
  }
  return keys;
}

TEST(HashRingTest, RemovalMovesOnlyTheDepartedShardsKeys) {
  HashRing ring;
  for (int s = 0; s < 5; ++s) ring.add(s);
  const auto keys = probe_keys(4000);
  std::vector<int> before;
  before.reserve(keys.size());
  for (const auto k : keys) before.push_back(ring.owner(k));

  ring.remove(2);
  std::size_t moved = 0;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const int now = ring.owner(keys[i]);
    if (before[i] == 2) {
      EXPECT_NE(now, 2);  // departed shard's keys must land elsewhere
      ++moved;
    } else {
      // THE consistent-hashing property: everyone else's keys stay put.
      EXPECT_EQ(now, before[i]) << "key " << i << " moved needlessly";
    }
  }
  EXPECT_GT(moved, 0u);

  // Adding the shard back restores the original assignment exactly.
  ring.add(2);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(ring.owner(keys[i]), before[i]);
  }
}

TEST(HashRingTest, PreferenceListsStartAtOwnerAndAreDistinct) {
  HashRing ring;
  for (int s = 0; s < 4; ++s) ring.add(s);
  for (const auto k : probe_keys(500)) {
    const auto prefs = ring.preference(k, 4);
    ASSERT_EQ(prefs.size(), 4u);
    EXPECT_EQ(prefs[0], ring.owner(k));
    EXPECT_EQ(std::set<int>(prefs.begin(), prefs.end()).size(), 4u);
  }
  // Asking for more shards than exist returns what exists.
  EXPECT_EQ(ring.preference(probe_keys(1)[0], 16).size(), 4u);
}

TEST(HashRingTest, OwnershipIsReasonablyBalanced) {
  HashRing ring(64);
  for (int s = 0; s < 5; ++s) ring.add(s);
  std::map<int, std::size_t> counts;
  const auto keys = probe_keys(10000);
  for (const auto k : keys) ++counts[ring.owner(k)];
  for (int s = 0; s < 5; ++s) {
    // With 64 vnodes per shard the slices are uneven but every shard must
    // own a real fraction of the keyspace (fair share would be 20%).
    EXPECT_GT(counts[s], keys.size() / 20) << "shard " << s << " starved";
  }
}

TEST(HashRingTest, KeyHashSeparatesEveryField) {
  const auto base = HashRing::key_hash("aurora", "gb", 134, 951);
  EXPECT_NE(base, HashRing::key_hash("frontier", "gb", 134, 951));
  EXPECT_NE(base, HashRing::key_hash("aurora", "rf", 134, 951));
  EXPECT_NE(base, HashRing::key_hash("aurora", "gb", 135, 951));
  EXPECT_NE(base, HashRing::key_hash("aurora", "gb", 134, 952));
  // The separator keeps concatenation ambiguity out of the key.
  EXPECT_NE(HashRing::key_hash("ab", "c", 1, 2),
            HashRing::key_hash("a", "bc", 1, 2));
  // Deterministic: the serverd router and its shard children must agree.
  EXPECT_EQ(base, HashRing::key_hash("aurora", "gb", 134, 951));
}

// ---------------------------------------------------------------- ShardFleet

const ml::GradientBoostingRegressor& fleet_gb() {
  static const auto* model = [] {
    const auto split = test::small_campaign(250);
    auto* m = new ml::GradientBoostingRegressor(15);
    m->fit(split.train.features(), split.train.targets());
    return m;
  }();
  return *model;
}

struct FleetFixture {
  FleetFixture(const std::string& name, FleetOptions opt)
      : dir(test::scratch_dir(name)), registry(dir) {
    ml::save_gb(fleet_gb(), registry.artifact_path("aurora", "gb"));
    opt.serve.threads = 2;
    fleet = std::make_unique<ShardFleet>(registry, opt);
  }

  std::string dir;
  ModelRegistry registry;
  std::unique_ptr<ShardFleet> fleet;
};

Request stq(int o, int v) {
  Request r;
  r.op = Op::kStq;
  r.machine = "aurora";
  r.o = o;
  r.v = v;
  return r;
}

const std::vector<std::pair<int, int>> kProblems = {
    {44, 260}, {85, 698}, {116, 575}, {134, 951}, {99, 718}, {70, 400}};

TEST(ShardFleetTest, RoutesDeterministicallyAndSpreadsKeys) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("routing", opt);
  std::set<int> shards_hit;
  for (const auto& [o, v] : kProblems) {
    const int first = f.fleet->route_of(stq(o, v));
    ASSERT_GE(first, 0);
    shards_hit.insert(first);
    for (int rep = 0; rep < 3; ++rep) {
      EXPECT_EQ(f.fleet->route_of(stq(o, v)), first);
    }
  }
  // Six distinct keys across three shards: more than one shard must serve.
  EXPECT_GE(shards_hit.size(), 2u);
  // Stats are a fan-out, not a routed key.
  Request stats;
  stats.op = Op::kStats;
  EXPECT_EQ(f.fleet->route_of(stats), -1);
}

TEST(ShardFleetTest, FailoverReRoutesToALiveReplicaBitIdentically) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("failover", opt);
  const Request req = stq(134, 951);
  const Response before = f.fleet->handle(req);
  ASSERT_TRUE(before.ok) << before.error;

  const int owner = f.fleet->route_of(req);
  ASSERT_GE(owner, 0);
  ASSERT_TRUE(f.fleet->kill_shard(static_cast<std::size_t>(owner)));
  EXPECT_FALSE(f.fleet->alive(static_cast<std::size_t>(owner)));

  const int replica = f.fleet->route_of(req);
  ASSERT_GE(replica, 0);
  EXPECT_NE(replica, owner);
  EXPECT_TRUE(f.fleet->alive(static_cast<std::size_t>(replica)));

  // Sweeps are deterministic, so the replica's answer is bit-identical
  // (it just cannot be a cache hit — the replica never saw this key).
  const Response after = f.fleet->handle(req);
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.nodes, before.nodes);
  EXPECT_EQ(after.tile, before.tile);
  EXPECT_EQ(after.time_s, before.time_s);
  EXPECT_EQ(after.node_hours, before.node_hours);
  EXPECT_GE(f.fleet->counters().failovers, 1u);
}

TEST(ShardFleetTest, TheLastLiveShardCannotBeKilled) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("lastlive", opt);
  EXPECT_TRUE(f.fleet->kill_shard(0));
  EXPECT_TRUE(f.fleet->kill_shard(1));
  EXPECT_FALSE(f.fleet->kill_shard(2)) << "killed the last live shard";
  EXPECT_TRUE(f.fleet->alive(2));
  // Killing a dead shard is a no-op, not a double free.
  EXPECT_FALSE(f.fleet->kill_shard(0));
  // Every key still routes to the survivor.
  for (const auto& [o, v] : kProblems) {
    EXPECT_EQ(f.fleet->route_of(stq(o, v)), 2);
    EXPECT_TRUE(f.fleet->handle(stq(o, v)).ok);
  }
  EXPECT_EQ(f.fleet->counters().alive, 1u);
  EXPECT_EQ(f.fleet->counters().unrouteable, 0u);
}

TEST(ShardFleetTest, RestartedShardRejoinsWithEmptyCacheButIdenticalAnswers) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("restart", opt);
  const Request req = stq(85, 698);
  const int owner = f.fleet->route_of(req);

  const Response first = f.fleet->handle(req);
  ASSERT_TRUE(first.ok);
  EXPECT_FALSE(first.cache_hit);
  const Response second = f.fleet->handle(req);
  ASSERT_TRUE(second.ok);
  EXPECT_TRUE(second.cache_hit);  // owner's sweep cache is warm

  ASSERT_TRUE(f.fleet->kill_shard(static_cast<std::size_t>(owner)));
  // Restarting an alive shard is refused; the dead one revives.
  EXPECT_FALSE(
      f.fleet->restart_shard(static_cast<std::size_t>((owner + 1) % 3)));
  ASSERT_TRUE(f.fleet->restart_shard(static_cast<std::size_t>(owner)));
  EXPECT_TRUE(f.fleet->alive(static_cast<std::size_t>(owner)));
  EXPECT_EQ(f.fleet->route_of(req), owner);  // ownership handed back

  const Response rejoined = f.fleet->handle(req);
  ASSERT_TRUE(rejoined.ok) << rejoined.error;
  EXPECT_FALSE(rejoined.cache_hit);  // fresh server, empty cache...
  EXPECT_EQ(rejoined.nodes, first.nodes);  // ...but bit-identical values
  EXPECT_EQ(rejoined.tile, first.tile);
  EXPECT_EQ(rejoined.time_s, first.time_s);
  EXPECT_EQ(rejoined.node_hours, first.node_hours);
  EXPECT_EQ(rejoined.model_version, first.model_version);

  const FleetCounters c = f.fleet->counters();
  EXPECT_EQ(c.kills, 1u);
  EXPECT_EQ(c.restarts, 1u);
  EXPECT_EQ(c.alive, 3u);
}

TEST(ShardFleetTest, StatsAggregateAcrossShardsAndBatchesAnswerInOrder) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("stats", opt);
  std::vector<Request> batch;
  for (int i = 0; i < static_cast<int>(kProblems.size()); ++i) {
    Request r = stq(kProblems[static_cast<std::size_t>(i)].first,
                    kProblems[static_cast<std::size_t>(i)].second);
    r.id = "b" + std::to_string(i);
    batch.push_back(std::move(r));
  }
  std::vector<Response> got;
  std::mutex m;
  std::condition_variable cv;
  bool done_flag = false;
  f.fleet->submit_batch_with(batch, [&](std::vector<Response> rs) {
    std::lock_guard<std::mutex> lock(m);
    got = std::move(rs);
    done_flag = true;
    cv.notify_one();
  });
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done_flag; });
  }
  ASSERT_EQ(got.size(), batch.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_TRUE(got[i].ok) << got[i].error;
    EXPECT_EQ(got[i].id, "b" + std::to_string(i));  // order preserved
  }

  Request stats;
  stats.op = Op::kStats;
  const Response agg = f.fleet->handle(stats);
  ASSERT_TRUE(agg.ok);
  ASSERT_TRUE(agg.has_stats);
  EXPECT_GE(agg.stats.requests, batch.size());
  EXPECT_EQ(f.fleet->counters().routed, batch.size());
}

TEST(ShardFleetTest, RegistryCountersComeFromTheSharedRegistryOnce) {
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture f("registry_once", opt);
  for (const auto& [o, v] : kProblems) {
    ASSERT_TRUE(f.fleet->handle(stq(o, v)).ok);
  }
  // Every shard reads the one registry, so each shard snapshot reports
  // the same load; the fleet view must count it once, not per shard.
  const ServerStats agg = f.fleet->aggregated_stats().value();
  EXPECT_EQ(f.registry.loads(), 1u);
  EXPECT_EQ(agg.models_loaded, f.registry.loads());
  EXPECT_EQ(agg.models_trained, f.registry.trainings());
  EXPECT_EQ(agg.reload_failures, f.registry.reload_failures());
}

// --------------------------------------------------------------- merge_stats

/// A second shard: every weight and merged value differs from
/// full_stats(), and online learning is off, so its online numbers must
/// stay out of the merge.
ServerStats second_shard() {
  ServerStats s = test::full_stats();
  s.requests = 40;
  s.cache_hits = 30;
  s.cache_misses = 10;
  s.latency_p50_ms = 9.0;
  s.latency_p95_ms = 20.0;
  s.latency_mean_ms = 4.5;
  s.batch_flushes = 2;
  s.batch_bypass = 6;
  s.batch_size_p50 = 1.5;
  s.batch_size_p95 = 4.0;
  for (std::size_t v = 0; v < kNumOps; ++v) {
    VerbLatency& verb = s.verb_latency[v];
    const double x = static_cast<double>(v);
    verb.count = 10 * v;  // verb 0 is unserved on this shard
    verb.p50_ms = 1.0 + x;
    verb.p95_ms = 2.0 + x;
    verb.p99_ms = 3.0 + x;
    verb.max_ms = v % 2 == 0 ? 100.0 + x : 0.5;
  }
  s.online_enabled = false;
  s.online.reports = 7;
  s.online.rolling_mape = 0.99;
  return s;
}

/// A shard with zero weight everywhere: its quantiles must not move any
/// mean, while its maxima and counters still count.
ServerStats idle_shard() {
  ServerStats s;
  s.queue_depth = 5;
  s.latency_p50_ms = 500.0;
  s.batch_size_p95 = 64.0;
  s.verb_latency[2].p99_ms = 700.0;
  s.verb_latency[3].max_ms = 900.0;
  s.online_enabled = true;
  s.online.reports = 1;
  s.online.rolling_mape = 0.5;
  return s;
}

TEST(MergeStatsTest, EveryFieldFollowsItsMergeRule) {
  const ServerStats a = test::full_stats();
  const ServerStats b = second_shard();
  const ServerStats c = idle_shard();
  const ServerStats m = merge_stats({a, b, c});

  // Sums.
  const auto sum = [&](auto field) { return a.*field + b.*field + c.*field; };
  EXPECT_EQ(m.requests, sum(&ServerStats::requests));
  EXPECT_EQ(m.errors, sum(&ServerStats::errors));
  EXPECT_EQ(m.sweeps_computed, sum(&ServerStats::sweeps_computed));
  EXPECT_EQ(m.coalesced, sum(&ServerStats::coalesced));
  EXPECT_EQ(m.cache_hits, sum(&ServerStats::cache_hits));
  EXPECT_EQ(m.cache_misses, sum(&ServerStats::cache_misses));
  EXPECT_EQ(m.cache_evictions, sum(&ServerStats::cache_evictions));
  EXPECT_EQ(m.cache_size, sum(&ServerStats::cache_size));
  EXPECT_EQ(m.queue_depth, sum(&ServerStats::queue_depth));
  EXPECT_EQ(m.deadline_exceeded, sum(&ServerStats::deadline_exceeded));
  EXPECT_EQ(m.shed, sum(&ServerStats::shed));
  EXPECT_EQ(m.stale_served, sum(&ServerStats::stale_served));
  EXPECT_EQ(m.reload_failures, sum(&ServerStats::reload_failures));
  EXPECT_EQ(m.models_loaded, sum(&ServerStats::models_loaded));
  EXPECT_EQ(m.models_trained, sum(&ServerStats::models_trained));
  EXPECT_EQ(m.batched_requests, sum(&ServerStats::batched_requests));
  EXPECT_EQ(m.batch_flushes, sum(&ServerStats::batch_flushes));
  EXPECT_EQ(m.batch_bypass, sum(&ServerStats::batch_bypass));
  EXPECT_EQ(m.overflow_closed, sum(&ServerStats::overflow_closed));

  // Recomputed from the merged counters, not averaged.
  EXPECT_DOUBLE_EQ(m.cache_hit_rate,
                   static_cast<double>(a.cache_hits + b.cache_hits) /
                       static_cast<double>(a.cache_hits + b.cache_hits +
                                           a.cache_misses + b.cache_misses));

  // Weighted means; the idle shard weighs nothing.
  const auto mean = [](double xa, double wa, double xb, double wb) {
    return (xa * wa + xb * wb) / (wa + wb);
  };
  const auto requests = [](const ServerStats& s) {
    return static_cast<double>(s.requests);
  };
  const auto dispatches = [](const ServerStats& s) {
    return static_cast<double>(s.batch_flushes + s.batch_bypass);
  };
  EXPECT_DOUBLE_EQ(m.latency_p50_ms, mean(a.latency_p50_ms, requests(a),
                                          b.latency_p50_ms, requests(b)));
  EXPECT_DOUBLE_EQ(m.latency_p95_ms, mean(a.latency_p95_ms, requests(a),
                                          b.latency_p95_ms, requests(b)));
  EXPECT_DOUBLE_EQ(m.latency_mean_ms, mean(a.latency_mean_ms, requests(a),
                                           b.latency_mean_ms, requests(b)));
  EXPECT_DOUBLE_EQ(m.batch_size_p50, mean(a.batch_size_p50, dispatches(a),
                                          b.batch_size_p50, dispatches(b)));
  EXPECT_DOUBLE_EQ(m.batch_size_p95, mean(a.batch_size_p95, dispatches(a),
                                          b.batch_size_p95, dispatches(b)));

  for (std::size_t v = 0; v < kNumOps; ++v) {
    SCOPED_TRACE("verb " + std::to_string(v));
    const VerbLatency& va = a.verb_latency[v];
    const VerbLatency& vb = b.verb_latency[v];
    const VerbLatency& vm = m.verb_latency[v];
    const auto wa = static_cast<double>(va.count);
    const auto wb = static_cast<double>(vb.count);
    EXPECT_EQ(vm.count, va.count + vb.count);
    EXPECT_DOUBLE_EQ(vm.p50_ms, mean(va.p50_ms, wa, vb.p50_ms, wb));
    EXPECT_DOUBLE_EQ(vm.p95_ms, mean(va.p95_ms, wa, vb.p95_ms, wb));
    EXPECT_DOUBLE_EQ(vm.p99_ms, mean(va.p99_ms, wa, vb.p99_ms, wb));
    EXPECT_DOUBLE_EQ(vm.max_ms, std::max({va.max_ms, vb.max_ms,
                                          c.verb_latency[v].max_ms}));
  }

  // Online: ORed gate; only the shards that run the loop contribute.
  EXPECT_TRUE(m.online_enabled);
  const OnlineStats& oa = a.online;
  const OnlineStats& oc = c.online;
  EXPECT_EQ(m.online.reports, oa.reports + oc.reports);
  EXPECT_EQ(m.online.measurements, oa.measurements + oc.measurements);
  EXPECT_EQ(m.online.duplicates, oa.duplicates + oc.duplicates);
  EXPECT_EQ(m.online.rejected, oa.rejected + oc.rejected);
  EXPECT_EQ(m.online.buffered, oa.buffered + oc.buffered);
  EXPECT_EQ(m.online.rolling_mape, std::max(oa.rolling_mape, oc.rolling_mape));
  EXPECT_EQ(m.online.drift_events, oa.drift_events + oc.drift_events);
  EXPECT_EQ(m.online.incremental_updates,
            oa.incremental_updates + oc.incremental_updates);
  EXPECT_EQ(m.online.refits, oa.refits + oc.refits);
  EXPECT_EQ(m.online.shadow_evals, oa.shadow_evals + oc.shadow_evals);
  EXPECT_EQ(m.online.promotions, oa.promotions + oc.promotions);
  EXPECT_EQ(m.online.promotions_rejected,
            oa.promotions_rejected + oc.promotions_rejected);
  EXPECT_EQ(m.online.cache_invalidated,
            oa.cache_invalidated + oc.cache_invalidated);

  // The merge of no shards is the zero snapshot, and the gate stays off
  // when no shard runs the loop.
  EXPECT_EQ(format_response(stats_response("", merge_stats({}))),
            format_response(stats_response("", ServerStats{})));
  EXPECT_FALSE(merge_stats({b}).online_enabled);
}

// ----------------------------------------------------------- EventLoopServer

struct TestClient {
  explicit TestClient(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
              0);
  }
  ~TestClient() { close(); }

  void close() {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }

  void send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Blocking buffered read of one '\n'-terminated line (without the \n).
  /// Returns empty on EOF.
  std::string read_line() {
    while (true) {
      const std::size_t nl = buf.find('\n');
      if (nl != std::string::npos) {
        const std::string line = buf.substr(0, nl);
        buf.erase(0, nl + 1);
        return line;
      }
      if (!fill()) return "";
    }
  }

  /// Blocking read of one full binary response frame.
  std::vector<Response> read_frame() {
    wire::FrameHeader header;
    while (true) {
      std::string error;
      const auto status = wire::probe_frame(
          reinterpret_cast<const unsigned char*>(buf.data()), buf.size(),
          &header, &error);
      EXPECT_NE(status, wire::FrameStatus::kBad) << error;
      if (status == wire::FrameStatus::kHeader &&
          buf.size() >= wire::kHeaderBytes + header.payload_bytes) {
        const auto out = wire::decode_response_frame(
            header, reinterpret_cast<const unsigned char*>(buf.data()) +
                        wire::kHeaderBytes);
        buf.erase(0, wire::kHeaderBytes + header.payload_bytes);
        return out;
      }
      if (!fill()) return {};
    }
  }

  bool at_eof() { return buf.empty() && !fill(); }

  int fd = -1;
  std::string buf;

 private:
  bool fill() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buf.append(chunk, static_cast<std::size_t>(n));
      return true;
    }
  }
};

/// Synchronous echo dispatch: answers ok with the request's op/id, plus
/// nodes = o so tests can see the payload round-trip.
EventLoopServer::Dispatch echo_dispatch() {
  return [](Request req, EventLoopServer::Completion done) {
    Response r;
    r.ok = true;
    r.op = op_name(req.op);
    r.id = req.id;
    r.has_recommendation = true;
    r.nodes = req.o;
    done(std::move(r));
  };
}

EventLoopServer::BatchDispatch echo_batch_dispatch() {
  return [](std::vector<Request> batch,
            EventLoopServer::BatchCompletion done) {
    std::vector<Response> out;
    out.reserve(batch.size());
    for (const Request& req : batch) {
      Response r;
      r.ok = true;
      r.op = op_name(req.op);
      r.id = req.id;
      r.has_recommendation = true;
      r.nodes = req.o;
      out.push_back(std::move(r));
    }
    done(std::move(out));
  };
}

std::string stq_line(int i) {
  return R"({"op":"stq","o":)" + std::to_string(i + 1) + R"(,"v":2,"id":"q)" +
         std::to_string(i) + R"("})" + "\n";
}

TEST(EventLoopServerTest, BindsAnEphemeralPort) {
  EventLoopServer server(echo_dispatch());
  EXPECT_GT(server.port(), 0);
}

TEST(EventLoopServerTest, ResponsesKeepRequestOrderAcrossReversedCompletions) {
  // The dispatch parks every completion and fires them in REVERSE once all
  // eight arrived — the loop must still deliver responses in request order.
  constexpr int kN = 8;
  std::mutex m;
  std::vector<std::pair<Request, EventLoopServer::Completion>> parked;
  std::thread completer;
  auto dispatch = [&](Request req, EventLoopServer::Completion done) {
    std::lock_guard<std::mutex> lock(m);
    parked.emplace_back(std::move(req), std::move(done));
    if (parked.size() == kN) {
      auto batch = std::move(parked);
      completer = std::thread([batch = std::move(batch)]() mutable {
        for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
          Response r;
          r.ok = true;
          r.op = op_name(it->first.op);
          r.id = it->first.id;
          it->second(std::move(r));
        }
      });
    }
  };
  {
    EventLoopServer server(dispatch);
    TestClient client(server.port());
    std::string all;
    for (int i = 0; i < kN; ++i) all += stq_line(i);
    client.send(all);
    for (int i = 0; i < kN; ++i) {
      const std::string line = client.read_line();
      const auto rec = parse_record(line);
      EXPECT_EQ(rec.at("id"), "q" + std::to_string(i)) << line;
    }
  }
  if (completer.joinable()) completer.join();
}

TEST(EventLoopServerTest, InterleavesJsonAndBinaryOnOneConnection) {
  EventLoopServer server(echo_dispatch(), echo_batch_dispatch());
  TestClient client(server.port());

  std::vector<Request> batch;
  for (int i = 0; i < 3; ++i) {
    Request r;
    r.op = Op::kBq;
    r.o = 10 + i;
    r.v = 2;
    r.id = "f" + std::to_string(i);
    batch.push_back(std::move(r));
  }
  client.send(stq_line(0));
  client.send(wire::encode_request_frame(batch));
  client.send(stq_line(1));

  const auto first = parse_record(client.read_line());
  EXPECT_EQ(first.at("id"), "q0");
  const auto frame = client.read_frame();
  ASSERT_EQ(frame.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(frame[static_cast<std::size_t>(i)].ok);
    EXPECT_EQ(frame[static_cast<std::size_t>(i)].id, "f" + std::to_string(i));
    EXPECT_EQ(frame[static_cast<std::size_t>(i)].nodes, 10 + i);
  }
  const auto second = parse_record(client.read_line());
  EXPECT_EQ(second.at("id"), "q1");

  const EventLoopStats stats = server.stats();
  EXPECT_EQ(stats.frames_in, 1u);
  EXPECT_EQ(stats.lines_in, 2u);
  EXPECT_EQ(stats.requests_in, 5u);
}

TEST(EventLoopServerTest, BinaryFramesFanOutWithoutABatchDispatch) {
  // batch_dispatch == nullptr: frame records flow through the per-request
  // dispatch and are stitched back into one response frame.
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  std::vector<Request> batch;
  for (int i = 0; i < 4; ++i) {
    Request r;
    r.op = Op::kStq;
    r.o = 7 * (i + 1);
    r.v = 2;
    r.id = "r" + std::to_string(i);
    batch.push_back(std::move(r));
  }
  client.send(wire::encode_request_frame(batch));
  const auto replies = client.read_frame();
  ASSERT_EQ(replies.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(replies[static_cast<std::size_t>(i)].id, "r" + std::to_string(i));
    EXPECT_EQ(replies[static_cast<std::size_t>(i)].nodes, 7 * (i + 1));
  }
}

TEST(EventLoopServerTest, GarbageJsonLineAnswersErrorAndConnectionSurvives) {
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  client.send("this is not json\n");
  const auto err = parse_record(client.read_line());
  EXPECT_EQ(err.at("ok"), "false");
  // The stream is still usable: a parse error poisons one line, not the
  // connection.
  client.send(stq_line(5));
  EXPECT_EQ(parse_record(client.read_line()).at("id"), "q5");
  EXPECT_GE(server.stats().protocol_errors, 1u);
}

TEST(EventLoopServerTest, BadMagicAnswersErrorFrameAndCloses) {
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  // 0xC3 commits the stream to a frame; a wrong continuation byte is
  // unrecoverable (framing is lost), so: one error frame, then EOF.
  client.send(std::string("\xC3XPB", 4) + std::string(16, 'x'));
  const auto replies = client.read_frame();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_TRUE(client.at_eof());
}

TEST(EventLoopServerTest, OversizedDeclaredLengthRejectedFromHeaderAlone) {
  EventLoopServer server(echo_dispatch());
  TestClient client(server.port());
  // Valid magic/version/kind, but a declared payload over the cap. Only
  // the 12 header bytes are ever sent — the server must reject without
  // waiting for (or allocating) the declared two gigabytes.
  std::string header(wire::kHeaderBytes, '\0');
  header[0] = static_cast<char>(0xC3);
  header[1] = 'C';
  header[2] = 'P';
  header[3] = 'B';
  header[4] = static_cast<char>(wire::kVersion);
  header[5] = 0;
  header[6] = 1;
  header[7] = 0;
  header[8] = header[9] = header[10] = 0;
  header[11] = static_cast<char>(0x80);  // payload_bytes = 2 GiB
  client.send(header);
  const auto replies = client.read_frame();
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_FALSE(replies[0].ok);
  EXPECT_TRUE(client.at_eof());
}

TEST(EventLoopServerTest, MidFrameDisconnectIsHarmless) {
  EventLoopServer server(echo_dispatch(), echo_batch_dispatch());
  {
    TestClient half(server.port());
    Request r;
    r.op = Op::kStq;
    r.o = 3;
    r.v = 2;
    const std::string frame = wire::encode_request_frame({r});
    half.send(frame.substr(0, frame.size() / 2));
    half.close();  // peer vanishes mid-frame
  }
  // The server must have reaped the dead connection and still serve.
  TestClient client(server.port());
  client.send(stq_line(9));
  EXPECT_EQ(parse_record(client.read_line()).at("id"), "q9");
}

TEST(EventLoopServerTest, ManyConcurrentConnectionsAllAnswered) {
  EventLoopServer server(echo_dispatch());
  constexpr int kConns = 32;
  std::vector<std::unique_ptr<TestClient>> clients;
  clients.reserve(kConns);
  for (int c = 0; c < kConns; ++c) {
    clients.push_back(std::make_unique<TestClient>(server.port()));
    clients.back()->send(stq_line(c));
  }
  for (int c = 0; c < kConns; ++c) {
    EXPECT_EQ(parse_record(clients[static_cast<std::size_t>(c)]->read_line())
                  .at("id"),
              "q" + std::to_string(c));
  }
  EXPECT_EQ(server.stats().connections_accepted,
            static_cast<std::uint64_t>(kConns));
}

// ----------------------------------------------------------- process shards
//
// The fleet over process shards. Each shard is a Server behind an
// EventLoopServer on an ephemeral port, which is what a forked serverd
// shard runs, so the fleet reaches it over the real binary wire without a
// fork.

EventLoopServer::Dispatch dispatch_to(ShardFleet& fleet) {
  return [&fleet](Request req, EventLoopServer::Completion done) {
    fleet.submit_with(std::move(req), std::move(done));
  };
}

EventLoopServer::BatchDispatch batch_dispatch_to(ShardFleet& fleet) {
  return [&fleet](std::vector<Request> batch,
                  EventLoopServer::BatchCompletion done) {
    fleet.submit_batch_with(std::move(batch), std::move(done));
  };
}

ServeOptions shard_options() {
  ServeOptions opt;
  opt.threads = 2;
  return opt;
}

struct ShardProcesses {
  ShardProcesses(const std::string& name, std::size_t n)
      : ShardProcesses(name, std::vector<ServeOptions>(n, shard_options())) {}

  /// One shard per entry, each a Server built with that entry.
  ShardProcesses(const std::string& name,
                 const std::vector<ServeOptions>& shards)
      : dir(test::scratch_dir(name)), registry(dir) {
    ml::save_gb(fleet_gb(), registry.artifact_path("aurora", "gb"));
    std::vector<int> ports;
    for (const ServeOptions& opt : shards) {
      Server& server = *servers.emplace_back(
          std::make_unique<Server>(registry, opt));
      listeners.push_back(std::make_unique<EventLoopServer>(
          [&server](Request req, EventLoopServer::Completion done) {
            server.submit_with(std::move(req), std::move(done));
          },
          [&server](std::vector<Request> batch,
                    EventLoopServer::BatchCompletion done) {
            server.submit_batch_with(std::move(batch), std::move(done));
          }));
      ports.push_back(listeners.back()->port());
    }
    FleetOptions fopt;
    fopt.serve.threads = 2;
    fleet = std::make_unique<ShardFleet>(ports, fopt);
  }

  std::string dir;
  ModelRegistry registry;
  std::vector<std::unique_ptr<Server>> servers;
  std::vector<std::unique_ptr<EventLoopServer>> listeners;
  std::unique_ptr<ShardFleet> fleet;  ///< destroyed first
};

Response submit_and_wait(ShardFleet& fleet, Request req) {
  std::promise<Response> answer;
  std::future<Response> future = answer.get_future();
  fleet.submit_with(std::move(req),
                    [&answer](Response r) { answer.set_value(std::move(r)); });
  return future.get();
}

/// Byte-identical protocol answers; only the cache_hit flag may differ.
void expect_same_answer(Response a, Response b) {
  a.cache_hit = b.cache_hit = false;
  EXPECT_EQ(format_response(a), format_response(b));
}

TEST(ProcessShardTest, AnswersMatchInProcessShardsBitIdentically) {
  ShardProcesses p("process_identical", 3);
  FleetOptions opt;
  opt.shards = 3;
  FleetFixture local("process_identical_local", opt);
  for (const auto& [o, v] : kProblems) {
    for (const Op op : {Op::kStq, Op::kBq}) {
      Request req = stq(o, v);
      req.op = op;
      const Response remote = submit_and_wait(*p.fleet, req);
      ASSERT_TRUE(remote.ok) << remote.error;
      expect_same_answer(remote, local.fleet->handle(req));
      expect_same_answer(p.fleet->handle(req), remote);
    }
  }
  EXPECT_EQ(p.fleet->counters().failovers, 0u);
  EXPECT_EQ(p.fleet->counters().alive, 3u);
}

TEST(ProcessShardTest, StatsInABinaryFrameMergesEveryLiveShard) {
  ShardProcesses p("process_stats", 2);
  EventLoopServer router(dispatch_to(*p.fleet), batch_dispatch_to(*p.fleet));
  TestClient client(router.port());
  Request stats;
  stats.op = Op::kStats;
  stats.id = "s";
  Request question = stq(134, 951);
  question.id = "q";
  client.send(wire::encode_request_frame({stats, question}));
  const std::vector<Response> replies = client.read_frame();
  ASSERT_EQ(replies.size(), 2u);
  ASSERT_TRUE(replies[0].has_stats) << replies[0].error;
  EXPECT_EQ(replies[0].id, "s");
  // The fan-out sends one stats request to each shard, and each shard's
  // snapshot counts its own request, queued while it answers: one shard
  // alone would report 1 of each.
  EXPECT_EQ(replies[0].stats.requests, 2u);
  EXPECT_EQ(replies[0].stats.queue_depth, 2u);
  EXPECT_EQ(replies[1].id, "q");
  ASSERT_TRUE(replies[1].ok) << replies[1].error;
  expect_same_answer(replies[1], p.fleet->handle(question));

  // The same request as a JSON line merges the same way: the sum of what
  // the shards themselves report once they are idle.
  client.send(format_request(stats) + "\n");
  const auto line = parse_record(client.read_line());
  EXPECT_EQ(line.at("requests"),
            std::to_string(p.servers[0]->stats().requests +
                           p.servers[1]->stats().requests));
}

TEST(ProcessShardTest, ADestroyedShardIsMarkedDeadAndFailsOverInRingOrder) {
  ShardProcesses p("process_failover", 3);
  const Request req = stq(134, 951);
  const int owner = p.fleet->route_of(req);
  ASSERT_GE(owner, 0);
  const Response before = submit_and_wait(*p.fleet, req);
  ASSERT_TRUE(before.ok) << before.error;

  HashRing ring;
  for (int s = 0; s < 3; ++s) ring.add(s);
  const std::vector<int> prefs =
      ring.preference(HashRing::request_key(req, "aurora", "gb"), 3);
  ASSERT_EQ(prefs[0], owner);
  const auto next = static_cast<std::size_t>(prefs[1]);
  const std::uint64_t next_requests = p.servers[next]->stats().requests;

  // The owner's process goes away with its pooled connection open.
  p.listeners[static_cast<std::size_t>(owner)].reset();
  const Response after = submit_and_wait(*p.fleet, req);
  ASSERT_TRUE(after.ok) << after.error;
  expect_same_answer(after, before);
  EXPECT_FALSE(p.fleet->alive(static_cast<std::size_t>(owner)));
  EXPECT_EQ(p.servers[next]->stats().requests, next_requests + 1);
  EXPECT_EQ(p.fleet->route_of(req), prefs[1]);
  EXPECT_GE(p.fleet->counters().failovers, 1u);
  EXPECT_EQ(p.fleet->counters().alive, 2u);

  // Stats merge the live shards only.
  Request stats;
  stats.op = Op::kStats;
  const Response merged = p.fleet->handle(stats);
  ASSERT_TRUE(merged.has_stats) << merged.error;
  std::uint64_t live_requests = 0;
  for (const int s : prefs) {
    if (s != owner) {
      live_requests += p.servers[static_cast<std::size_t>(s)]->stats().requests;
    }
  }
  EXPECT_EQ(merged.stats.requests, live_requests);
}

// A shard that sheds the stats probe is busy, not gone: the merge leaves it
// out, and it stays alive and keeps its keys.
TEST(ProcessShardTest, AShardThatShedsTheStatsProbeStaysAlive) {
  const Request req = stq(134, 951);
  HashRing ring;
  for (int s = 0; s < 2; ++s) ring.add(s);
  const auto busy = static_cast<std::size_t>(
      ring.owner(HashRing::request_key(req, "aurora", "gb")));

  // The busy shard has one worker, admits one queued task, and stalls
  // 300-900 ms before every task.
  FaultOptions fopt;
  fopt.worker_stall = 1.0;
  fopt.worker_stall_ms = 600.0;
  FaultInjector fault(fopt);
  std::vector<ServeOptions> shards(2, shard_options());
  shards[busy].threads = 1;
  shards[busy].max_queue_depth = 1;
  shards[busy].fault_injector = &fault;
  ShardProcesses p("process_overloaded", shards);
  Server& server = *p.servers[busy];

  // Occupy the worker, then fill the queue behind it.
  std::promise<Response> first_done;
  std::promise<Response> second_done;
  server.submit_with(stq(100, 500), [&](Response r) {
    first_done.set_value(std::move(r));
  });
  while (fault.injected(FaultPoint::kWorkerStall) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.submit_with(stq(120, 700), [&](Response r) {
    second_done.set_value(std::move(r));
  });

  Request stats;
  stats.op = Op::kStats;
  const Response merged = p.fleet->handle(stats);
  EXPECT_EQ(server.stats().shed, 1u) << "the stats probe was not shed";
  ASSERT_TRUE(merged.has_stats) << merged.error;
  EXPECT_EQ(merged.stats.requests, p.servers[1 - busy]->stats().requests);
  EXPECT_TRUE(p.fleet->alive(busy));
  EXPECT_EQ(p.fleet->counters().alive, 2u);

  EXPECT_TRUE(first_done.get_future().get().ok);
  EXPECT_TRUE(second_done.get_future().get().ok);
  const std::uint64_t before = server.stats().requests;
  EXPECT_EQ(p.fleet->route_of(req), static_cast<int>(busy));
  const Response answer = submit_and_wait(*p.fleet, req);
  ASSERT_TRUE(answer.ok) << answer.error;
  EXPECT_EQ(server.stats().requests, before + 1);
  EXPECT_EQ(p.fleet->counters().failovers, 0u);
}

// A frame holding a stats record is not answered on the calling thread:
// in serverd that is the event loop thread, which would otherwise wait out
// every sweep in the frame.
TEST(ShardFleetTest, AFrameHoldingStatsIsAnsweredOffTheCallersThread) {
  FaultOptions fopt;
  fopt.sweep_delay = 1.0;
  fopt.sweep_delay_ms = 200.0;  // 100-300 ms with the injector's jitter
  FaultInjector fault(fopt);
  FleetOptions opt;
  opt.shards = 2;
  opt.serve.fault_injector = &fault;
  FleetFixture f("stats_frame", opt);

  Request stats;
  stats.op = Op::kStats;
  std::promise<std::vector<Response>> answered;
  std::future<std::vector<Response>> future = answered.get_future();
  std::atomic<bool> done{false};
  const auto start = std::chrono::steady_clock::now();
  f.fleet->submit_batch_with({stats, stq(134, 951)},
                             [&](std::vector<Response> out) {
                               done.store(true);
                               answered.set_value(std::move(out));
                             });
  const std::chrono::duration<double, std::milli> returned =
      std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(done.load()) << "the frame was answered on the caller's thread";
  EXPECT_LT(returned.count(), 50.0);

  const std::vector<Response> out = future.get();
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(out[0].has_stats);
  EXPECT_TRUE(out[1].ok) << out[1].error;
  EXPECT_EQ(fault.injected(FaultPoint::kSweepCompute), 1u);
}

}  // namespace
}  // namespace ccpred::serve
