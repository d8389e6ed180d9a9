#pragma once

/// \file fleet.hpp
/// Horizontal scale-out for the serving layer: N shards — in-process
/// Servers, or the shard processes `serve --fleet N` forks, reached over
/// the binary wire — behind ShardFleet, the one consistent-hash router.
///
/// Sharding key. Sweeps — the expensive unit of work — are pure functions
/// of (machine, kind, O, V) at a given model version, so that tuple is the
/// routing key: every repeat of a question lands on the shard whose sweep
/// cache already holds the answer. The model version is deliberately NOT
/// part of the key (a hot-reload would re-shard the whole keyspace for
/// nothing); job estimates route by the same (machine, kind, O, V) for
/// locality, a frame routes by its first record, and stats fan out to
/// every live shard and merge.
///
/// The ring. Each shard owns `vnodes` pseudo-random points on a u64 ring
/// (splitmix64 of (shard, replica)); a key belongs to the first shard
/// point clockwise from its hash. Adding or removing one shard therefore
/// moves only the slices adjacent to its points — the property the fleet
/// test pins down — and the ring is identical in every process that
/// configures the same shard count, so clients can route by it too.
///
/// Failure. Routing walks the key's preference list — the distinct shards
/// in ring order after the owner — to the first live shard ("failover
/// re-hash"); a shard process whose round trip fails is marked dead on the
/// spot and the walk goes on; one that sheds a stats probe is only left
/// out of that merge. kill_shard() models a crashed worker (never
/// the last live one); restart_shard() revives a slot with a fresh shard
/// — a Server with an EMPTY cache that, because sweeps are deterministic,
/// answers bit-identically, or a new connection to the slot's port. The
/// chaos test (seeds 1/7/42) drives kills and restarts through the
/// FaultInjector's kShardKill / kShardRestart points.
///
/// Threads. submit_with/submit_batch_with never block their caller (the
/// event loop thread in serverd): in-process shards enqueue on their own
/// pools; round trips to shard processes and frames holding a stats
/// record run on the fleet's router pool. Every record, handle()'s too,
/// passes its shard's admission (and may answer `overloaded`).

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "ccpred/common/thread_pool.hpp"
#include "ccpred/serve/server.hpp"

namespace ccpred::serve {

class Shard;  ///< a fleet member's transport (fleet.cpp)

/// Consistent-hash ring over integer shard ids. Not thread-safe; the
/// fleet mutates it only under its own lock (membership changes are rare).
class HashRing {
 public:
  explicit HashRing(std::size_t vnodes = 64);

  void add(int shard);
  void remove(int shard);
  bool contains(int shard) const { return shards_.count(shard) != 0; }
  std::size_t shard_count() const { return shards_.size(); }

  /// The shard owning `key` (first point clockwise). Throws if empty.
  int owner(std::uint64_t key) const;

  /// Up to `n` distinct shards in ring order starting at the owner: the
  /// key's failover preference list.
  std::vector<int> preference(std::uint64_t key, std::size_t n) const;

  /// Deterministic routing hash of the sweep-cache keyspace.
  static std::uint64_t key_hash(const std::string& machine,
                                const std::string& kind, int o, int v);

  /// key_hash of a request, with the server defaults applied to an empty
  /// machine or model — the key the fleet routes by.
  static std::uint64_t request_key(const Request& request,
                                   const std::string& default_machine,
                                   const std::string& default_model);

 private:
  std::size_t vnodes_;
  std::map<std::uint64_t, int> ring_;  ///< point -> shard
  std::set<int> shards_;
};

/// Fleet construction knobs, the same for both shard kinds.
struct FleetOptions {
  std::size_t shards = 3;   ///< the ports constructor takes one per port
  std::size_t vnodes = 64;  ///< ring points per shard
  /// The fleet routes by its defaults; in-process Servers are built with
  /// all of it, and `threads` (0 = 4) sizes a process fleet's router pool.
  ServeOptions serve;
  /// Optional chaos source consulted once per routed request: kShardKill
  /// tears down the target shard (never the last live one), kShardRestart
  /// revives the lowest-numbered dead shard. Must outlive the fleet.
  FaultInjector* fault_injector = nullptr;
};

/// Fleet-level counters (per-shard ServerStats aggregate separately).
struct FleetCounters {
  std::size_t shards = 0;
  std::size_t alive = 0;
  std::uint64_t routed = 0;     ///< records handed to a shard
  std::uint64_t failovers = 0;  ///< hand-offs past a dead owner
  std::uint64_t kills = 0;
  std::uint64_t restarts = 0;
  std::uint64_t unrouteable = 0;  ///< no live shard to answer
};

/// See file comment. Thread-safe: any method, from any thread.
class ShardFleet {
 public:
  /// `options.shards` in-process Servers sharing one ModelRegistry (so
  /// one model version), which must outlive the fleet.
  ShardFleet(ModelRegistry& registry, FleetOptions options);

  /// One shard process per port on 127.0.0.1, connected lazily.
  ShardFleet(std::vector<int> ports, FleetOptions options);

  /// Routes one request to its shard (with failover) and waits for the
  /// answer. Stats requests merge across live shards.
  Response handle(const Request& request);

  /// A frame of one (see submit_batch_with).
  void submit_with(Request request, std::function<void(Response)> done);

  /// Routes a whole wire frame by its FIRST record — clients batch
  /// questions that share a destination; mixed-destination frames still
  /// answer correctly, just without cache locality for the strays. Stats
  /// records answer from the fleet-wide merge; `done` runs once.
  void submit_batch_with(std::vector<Request> batch,
                         std::function<void(std::vector<Response>)> done);

  /// Tears down shard `i` (no-op if already dead or it is the last live
  /// shard; returns whether it died). In-flight requests finish first —
  /// the shard is destroyed when the last holder lets go.
  bool kill_shard(std::size_t i);

  /// Revives shard `i` with a fresh shard. No-op if alive.
  bool restart_shard(std::size_t i);

  bool alive(std::size_t i) const;
  std::size_t shard_count() const { return slots_.size(); }

  /// The shard this request would be served by right now (failover
  /// applied), or -1 for stats fan-out. Exposed for tests.
  int route_of(const Request& request) const;

  FleetCounters counters() const;
  /// merge_stats over the live shards' snapshots; nullopt if none answers
  /// with one. Registry counters: a shared registry's are read once from
  /// it; shard processes sum their own.
  std::optional<ServerStats> aggregated_stats();

 private:
  struct Slot {
    mutable std::mutex mutex;      ///< guards `shard` swap
    std::shared_ptr<Shard> shard;  ///< null while dead
    std::atomic<bool> alive{true};
    std::atomic<std::uint64_t> routed{0};
  };

  using ShardFactory = std::function<std::shared_ptr<Shard>(std::size_t)>;
  /// The one place the transport is chosen: `make_shard` builds slot i's
  /// shard, every shard reads `shared_registry` (unless null), and frames
  /// for a `blocking` transport route on the router pool.
  ShardFleet(FleetOptions options, ShardFactory make_shard,
             ModelRegistry* shared_registry, bool blocking);

  /// Pins the slot's shard (or nullptr if dead).
  std::shared_ptr<Shard> pin(std::size_t i) const;
  /// First live shard in the key's preference list; -1 if none.
  int pick(std::uint64_t key) const;
  /// The preference walk of a frame without stats, on this thread: chaos
  /// points, then the first live shard in ring order that takes it.
  void route_frame(std::vector<Request> batch,
                   std::function<void(std::vector<Response>)> done);
  /// Removes slot i's shard if it is still `only`, and returns it for the
  /// caller to destroy off every lock.
  std::shared_ptr<Shard> take(std::size_t i, const Shard* only);
  /// Consults the chaos points once per routed request.
  void maybe_chaos(std::uint64_t key);

  FleetOptions options_;
  const ShardFactory make_shard_;
  ModelRegistry* const shared_registry_;
  const bool blocking_;
  HashRing ring_;
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Serializes kill/restart so two concurrent kills can never observe
  /// "two alive" and together empty the fleet.
  mutable std::mutex membership_mutex_;
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> kills_{0};
  std::atomic<std::uint64_t> restarts_{0};
  std::atomic<std::uint64_t> unrouteable_{0};
  /// Last member: it drains first, while everything its tasks touch is
  /// alive.
  ThreadPool router_pool_;
};

}  // namespace ccpred::serve
