#include "ccpred/serve/fleet.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <future>
#include <thread>
#include <utility>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ccpred/common/error.hpp"
#include "ccpred/serve/wire.hpp"

namespace ccpred::serve {

using Frame = std::vector<Request>;
using FrameDone = std::function<void(std::vector<Response>)>;

/// A fleet member's transport. submit() hands a frame over: `done` then
/// runs exactly once, on a shard worker or before submit() returns.
/// stats() answers a stats probe, shed ones without a snapshot. A shard
/// that cannot be reached answers false (or nullopt) instead, leaving the
/// arguments untouched; the fleet marks it dead and walks on.
class Shard {
 public:
  virtual ~Shard() = default;
  virtual bool submit(Frame& batch, FrameDone& done) = 0;
  virtual std::optional<Response> stats() = 0;
};

namespace {

/// splitmix64 finalizer (same construction as the FaultInjector's mixer):
/// ring point placement must be identical in every process.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a, explicitly — std::hash makes no cross-process guarantee, and
/// every process routing by the ring must agree on every key.
std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

Response unavailable(const Request& req) {
  return error_response("no live shard for this key", op_name(req.op), req.id,
                        "unavailable");
}

/// An in-process Server: submit() enqueues on its pool and returns.
class LocalShard final : public Shard {
 public:
  LocalShard(ModelRegistry& registry, const ServeOptions& options)
      : server_(registry, options) {}

  bool submit(Frame& batch, FrameDone& done) override {
    server_.submit_batch_with(std::move(batch), std::move(done));
    return true;
  }
  std::optional<Response> stats() override {
    return stats_response("", server_.stats());
  }

 private:
  Server server_;
};

/// Shards train missing artifacts on first use, so the first connect can
/// race a multi-second startup: retry for up to ~60 s before declaring
/// the shard dead.
int connect_with_retry(int port) {
  for (int attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    CCPRED_CHECK_MSG(fd >= 0, "cannot create router socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return fd;
    }
    ::close(fd);
    CCPRED_CHECK_MSG(attempt < 300, "cannot connect to shard on port " << port);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
}

void send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    CCPRED_CHECK_MSG(n > 0, "shard connection lost mid-send");
    sent += static_cast<std::size_t>(n);
  }
}

std::vector<Response> read_response_frame(int fd) {
  std::string buf;
  char chunk[65536];
  wire::FrameHeader header;
  while (true) {
    std::string error;
    const wire::FrameStatus status = wire::probe_frame(
        reinterpret_cast<const unsigned char*>(buf.data()), buf.size(),
        &header, &error);
    CCPRED_CHECK_MSG(status != wire::FrameStatus::kBad,
                     "shard protocol error: " << error);
    if (status == wire::FrameStatus::kHeader &&
        buf.size() >= wire::kHeaderBytes + header.payload_bytes) {
      // Round trips are serialized per connection, so nothing may follow
      // the frame.
      CCPRED_CHECK_MSG(buf.size() == wire::kHeaderBytes + header.payload_bytes,
                       "unexpected bytes after shard response frame");
      return wire::decode_response_frame(
          header, reinterpret_cast<const unsigned char*>(buf.data()) +
                      wire::kHeaderBytes);
    }
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    CCPRED_CHECK_MSG(n > 0, "shard connection closed mid-frame");
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// A shard process on 127.0.0.1:port behind one pooled binary-wire
/// connection, opened lazily. Every call is one round trip, serialized
/// per connection, so every call blocks. A failed round trip (connect
/// timeout, mid-frame EOF, malformed reply) fails this and every later
/// call.
class ProcessShard final : public Shard {
 public:
  explicit ProcessShard(int port) : port_(port) {}
  ~ProcessShard() override {
    if (fd_ >= 0) ::close(fd_);
  }

  bool submit(Frame& batch, FrameDone& done) override {
    std::optional<std::vector<Response>> replies = exchange(batch);
    if (replies) done(std::move(*replies));
    return replies.has_value();
  }

  std::optional<Response> stats() override {
    // A default Request is a stats request.
    std::optional<std::vector<Response>> reply = exchange({Request{}});
    if (!reply) return std::nullopt;
    return std::move(reply->front());
  }

 private:
  std::optional<std::vector<Response>> exchange(const Frame& batch) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (failed_) return std::nullopt;
    try {
      if (fd_ < 0) fd_ = connect_with_retry(port_);
      send_all(fd_, wire::encode_request_frame(batch));
      std::vector<Response> replies = read_response_frame(fd_);
      CCPRED_CHECK_MSG(replies.size() == batch.size(),
                       "shard answered " << replies.size() << " records for "
                                         << batch.size());
      return replies;
    } catch (const std::exception& e) {
      failed_ = true;
      std::fprintf(stderr, "fleet: shard on port %d marked dead: %s\n", port_,
                   e.what());
      return std::nullopt;
    }
  }

  const int port_;
  std::mutex mutex_;  ///< serializes the connection's round trips
  int fd_ = -1;
  bool failed_ = false;
};

}  // namespace

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes) {
  CCPRED_CHECK_MSG(vnodes_ > 0, "hash ring needs at least one vnode");
}

void HashRing::add(int shard) {
  if (!shards_.insert(shard).second) return;
  for (std::size_t r = 0; r < vnodes_; ++r) {
    const std::uint64_t point =
        mix64(mix64(static_cast<std::uint64_t>(shard) + 1) ^
              mix64(static_cast<std::uint64_t>(r) + 0x51ULL));
    ring_.emplace(point, shard);  // collisions keep the first owner
  }
}

void HashRing::remove(int shard) {
  if (shards_.erase(shard) == 0) return;
  for (auto it = ring_.begin(); it != ring_.end();) {
    it = it->second == shard ? ring_.erase(it) : std::next(it);
  }
}

int HashRing::owner(std::uint64_t key) const {
  CCPRED_CHECK_MSG(!ring_.empty(), "hash ring is empty");
  const auto it = ring_.lower_bound(key);
  return it == ring_.end() ? ring_.begin()->second : it->second;
}

std::vector<int> HashRing::preference(std::uint64_t key, std::size_t n) const {
  std::vector<int> out;
  if (ring_.empty() || n == 0) return out;
  auto it = ring_.lower_bound(key);
  for (std::size_t steps = 0; steps < ring_.size() && out.size() < n; ++steps) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
    ++it;
  }
  return out;
}

std::uint64_t HashRing::key_hash(const std::string& machine,
                                 const std::string& kind, int o, int v) {
  std::uint64_t h = fnv1a(machine, 1469598103934665603ULL);
  h = fnv1a("/", h);  // separator: ("ab","c") must differ from ("a","bc")
  h = fnv1a(kind, h);
  const std::uint64_t ov =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(o)) << 32) |
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(v));
  return mix64(h ^ mix64(ov));
}

std::uint64_t HashRing::request_key(const Request& request,
                                     const std::string& default_machine,
                                     const std::string& default_model) {
  return key_hash(request.machine.empty() ? default_machine : request.machine,
                  request.model.empty() ? default_model : request.model,
                  request.o, request.v);
}

ShardFleet::ShardFleet(ModelRegistry& registry, FleetOptions options)
    : ShardFleet(
          options,
          [&registry, serve = options.serve](std::size_t) {
            return std::make_shared<LocalShard>(registry, serve);
          },
          &registry, /*blocking=*/false) {}

ShardFleet::ShardFleet(std::vector<int> ports, FleetOptions options)
    : ShardFleet(
          (options.shards = ports.size(), options),
          [ports](std::size_t i) {
            return std::make_shared<ProcessShard>(ports[i]);
          },
          nullptr, /*blocking=*/true) {}

ShardFleet::ShardFleet(FleetOptions options, ShardFactory make_shard,
                       ModelRegistry* shared_registry, bool blocking)
    : options_(std::move(options)),
      make_shard_(std::move(make_shard)),
      shared_registry_(shared_registry),
      blocking_(blocking),
      ring_(options_.vnodes),
      // An in-process fleet routes only frames holding stats on it.
      router_pool_(!blocking_                    ? 1
                   : options_.serve.threads > 0 ? options_.serve.threads
                                                : 4) {
  CCPRED_CHECK_MSG(options_.shards > 0, "fleet needs at least one shard");
  for (std::size_t i = 0; i < options_.shards; ++i) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->shard = make_shard_(i);
    ring_.add(static_cast<int>(i));
  }
}

std::shared_ptr<Shard> ShardFleet::pin(std::size_t i) const {
  const Slot& slot = *slots_[i];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  return slot.shard;
}

int ShardFleet::pick(std::uint64_t key) const {
  for (const int s : ring_.preference(key, slots_.size())) {
    if (slots_[static_cast<std::size_t>(s)]->alive.load(
            std::memory_order_acquire)) {
      return s;
    }
  }
  return -1;
}

void ShardFleet::maybe_chaos(std::uint64_t key) {
  FaultInjector* fault = options_.fault_injector;
  if (fault == nullptr || !fault->enabled()) return;
  if (fault->fire(FaultPoint::kShardKill)) {
    const int target = pick(key);
    if (target >= 0) kill_shard(static_cast<std::size_t>(target));
  }
  if (fault->fire(FaultPoint::kShardRestart)) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (!slots_[i]->alive.load(std::memory_order_acquire)) {
        restart_shard(i);
        break;
      }
    }
  }
}

Response ShardFleet::handle(const Request& req) {
  if (req.op == Op::kStats) {
    const std::optional<ServerStats> merged = aggregated_stats();
    return merged ? stats_response(req.id, *merged) : unavailable(req);
  }
  std::promise<std::vector<Response>> answer;
  std::future<std::vector<Response>> future = answer.get_future();
  route_frame({req}, [&answer](std::vector<Response> out) {
    answer.set_value(std::move(out));
  });
  return std::move(future.get().front());
}

void ShardFleet::submit_with(Request req, std::function<void(Response)> done) {
  submit_batch_with({std::move(req)},
                    [done = std::move(done)](std::vector<Response> out) {
                      done(std::move(out.front()));
                    });
}

void ShardFleet::submit_batch_with(Frame batch, FrameDone done) {
  const auto is_stats = [](const Request& r) { return r.op == Op::kStats; };
  const bool stats = std::any_of(batch.begin(), batch.end(), is_stats);
  if (!stats && !blocking_) {
    route_frame(std::move(batch), std::move(done));  // enqueues and returns
    return;
  }
  // Round trips to shard processes and stats fan-outs block, so they run
  // on the router pool; a frame holding stats answers record by record.
  router_pool_.post([this, stats, batch = std::move(batch),
                      done = std::move(done)]() mutable {
    if (!stats) return route_frame(std::move(batch), std::move(done));
    std::vector<Response> out;
    for (const Request& r : batch) out.push_back(handle(r));
    done(std::move(out));
  });
}

void ShardFleet::route_frame(Frame batch, FrameDone done) {
  if (batch.empty()) {
    done({});
    return;
  }
  const std::uint64_t key =
      HashRing::request_key(batch.front(), options_.serve.default_machine,
                            options_.serve.default_model);
  maybe_chaos(key);
  bool failed_over = false;
  for (const int s : ring_.preference(key, slots_.size())) {
    const auto i = static_cast<std::size_t>(s);
    if (const std::shared_ptr<Shard> shard = pin(i)) {
      // Counted before the hand-off: an in-process answer may complete
      // on a shard worker before submit() returns.
      if (failed_over) failovers_.fetch_add(1, std::memory_order_relaxed);
      slots_[i]->routed.fetch_add(batch.size(), std::memory_order_relaxed);
      if (shard->submit(batch, done)) return;
      take(i, shard.get());  // unreachable: dead from now on
    }
    failed_over = true;
  }
  unrouteable_.fetch_add(1, std::memory_order_relaxed);
  std::vector<Response> out;
  for (const Request& r : batch) out.push_back(unavailable(r));
  done(std::move(out));
}

std::shared_ptr<Shard> ShardFleet::take(std::size_t i, const Shard* only) {
  Slot& slot = *slots_[i];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.shard.get() != only) return nullptr;
  slot.alive.store(false, std::memory_order_release);
  return std::move(slot.shard);
}

bool ShardFleet::kill_shard(std::size_t i) {
  if (i >= slots_.size()) return false;
  // Declared before the lock, so it dies after the lock is released: the
  // last holder of the shard runs its destructor (draining an in-process
  // shard's pools) off the locks.
  std::shared_ptr<Shard> victim;
  const std::lock_guard<std::mutex> membership(membership_mutex_);
  std::size_t live = 0;
  for (const auto& slot : slots_) {
    if (slot->alive.load(std::memory_order_acquire)) ++live;
  }
  if (live <= 1 || (victim = take(i, pin(i).get())) == nullptr) return false;
  kills_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ShardFleet::restart_shard(std::size_t i) {
  if (i >= slots_.size()) return false;
  // Built outside the locks: Server construction spawns worker pools.
  std::shared_ptr<Shard> fresh = make_shard_(i);
  const std::lock_guard<std::mutex> membership(membership_mutex_);
  Slot& slot = *slots_[i];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (slot.shard != nullptr) return false;
  slot.shard = std::move(fresh);
  slot.alive.store(true, std::memory_order_release);
  restarts_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ShardFleet::alive(std::size_t i) const {
  return i < slots_.size() &&
         slots_[i]->alive.load(std::memory_order_acquire);
}

int ShardFleet::route_of(const Request& req) const {
  if (req.op == Op::kStats) return -1;
  return pick(HashRing::request_key(req, options_.serve.default_machine,
                                    options_.serve.default_model));
}

FleetCounters ShardFleet::counters() const {
  FleetCounters c;
  c.shards = slots_.size();
  for (const auto& slot : slots_) {
    if (slot->alive.load(std::memory_order_acquire)) ++c.alive;
    c.routed += slot->routed.load(std::memory_order_relaxed);
  }
  c.failovers = failovers_.load(std::memory_order_relaxed);
  c.kills = kills_.load(std::memory_order_relaxed);
  c.restarts = restarts_.load(std::memory_order_relaxed);
  c.unrouteable = unrouteable_.load(std::memory_order_relaxed);
  return c;
}

std::optional<ServerStats> ShardFleet::aggregated_stats() {
  std::vector<ServerStats> shards;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const std::shared_ptr<Shard> shard = pin(i);
    if (shard == nullptr) continue;
    std::optional<Response> reply = shard->stats();
    if (!reply) {
      take(i, shard.get());  // unreachable: dead from now on
    } else if (reply->has_stats) {  // else shed: alive, just not merged
      shards.push_back(std::move(reply->stats));
    }
  }
  if (shards.empty()) return std::nullopt;
  ServerStats total = merge_stats(shards);
  if (shared_registry_ != nullptr) {
    // Every shard reports the one shared registry: count it once, not
    // once per shard.
    total.reload_failures = shared_registry_->reload_failures();
    total.models_loaded = shared_registry_->loads();
    total.models_trained = shared_registry_->trainings();
  }
  return total;
}

}  // namespace ccpred::serve
