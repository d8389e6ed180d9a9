#include "workload.hpp"

#include <algorithm>
#include <cmath>

#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/serve/fleet.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/wire.hpp"

namespace perfbench {

using ccpred::Rng;
using ccpred::serve::Op;
using ccpred::serve::Request;

namespace {

/// Keys drawn for feedback_mix: about 4x the daemon's 256-sweep cache.
constexpr std::size_t kFeedbackKeys = 1000;
/// Seed of the feedback_mix key set (fixed across workload seeds).
constexpr std::uint64_t kFeedbackKeySeed = 2025;
/// Zipf exponent of the feedback key popularity.
constexpr double kZipfExponent = 1.0;
/// Share of cold_open_loop arrivals repeating a recent (in-flight) question.
constexpr double kRepeatShare = 0.10;
/// Share of cold_open_loop arrivals that are simulator `job` requests.
constexpr double kJobShare = 0.15;
/// Share of fleet_binary records drawn from the cold support box.
constexpr double kFleetColdShare = 0.25;
/// feedback_mix reports on kDriftMachine scale their walls by kDriftScale,
/// so the drift detector trips there (no refit follows; see shape_of).
constexpr double kDriftScale = 1.6;
constexpr const char* kDriftMachine = "frontier";
/// Wall times carried by one feedback report.
constexpr std::size_t kWallsPerReport = 2;

/// splitmix64 finalizer: decorrelates (seed, stream) pairs.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

const ccpred::sim::CcsdSimulator& simulator(const std::string& machine) {
  static const ccpred::sim::CcsdSimulator aurora =
      ccpred::serve::simulator_for("aurora");
  static const ccpred::sim::CcsdSimulator frontier =
      ccpred::serve::simulator_for("frontier");
  return machine == "aurora" ? aurora : frontier;
}

std::vector<std::pair<int, int>> feasible_grid(const Key& key) {
  const auto& sim = simulator(key.machine);
  std::vector<std::pair<int, int>> grid;
  for (const int n : sim.machine().node_menu()) {
    for (const int t : sim.machine().tile_menu()) {
      if (sim.feasible({.o = key.o, .v = key.v, .nodes = n, .tile = t})) {
        grid.emplace_back(n, t);
      }
    }
  }
  return grid;
}

const char* machine_of(Rng& rng) {
  return rng.bernoulli(0.5) ? "aurora" : "frontier";
}

Request question(Op op, const Key& key) {
  Request r;
  r.op = op;
  r.machine = key.machine;
  r.o = key.o;
  r.v = key.v;
  return r;
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "warm_pipelined") return Workload::kWarmPipelined;
  if (name == "cold_open_loop") return Workload::kColdOpenLoop;
  if (name == "feedback_mix") return Workload::kFeedbackMix;
  if (name == "fleet_binary") return Workload::kFleetBinary;
  throw ccpred::Error("unknown workload: " + name);
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kWarmPipelined: return "warm_pipelined";
    case Workload::kColdOpenLoop: return "cold_open_loop";
    case Workload::kFeedbackMix: return "feedback_mix";
    case Workload::kFleetBinary: return "fleet_binary";
  }
  return "?";
}

WorkloadShape shape_of(Workload w) {
  WorkloadShape s;
  switch (w) {
    case Workload::kWarmPipelined:
      // A third of the 30k/s first tried: at 22% host steal the daemon
      // answered 14.7k/s of those.
      s.arrival_rate = 10000.0;
      s.window = 4;
      s.prewarm = true;
      s.slo_ms = 0.5;
      break;
    case Workload::kColdOpenLoop:
      s.arrival_rate = 300.0;
      break;
    case Workload::kFeedbackMix:
      s.arrival_rate = 500.0;
      s.window = 1;
      s.report_connections = 1;
      // Measured runs are rarer than questions: a report every 50 ms.
      s.report_rate = 20.0;
      // A refit needs more buffered rows than a run reports, so none
      // starts: a background refit takes the CPU the reads need, and how
      // many land in a run varies from run to run.
      s.min_refit_rows = 1'000'000;
      s.online = true;
      break;
    case Workload::kFleetBinary:
      s.arrival_rate = 50.0;
      s.window = 1;
      s.frame_records = 16;
      s.binary = true;
      s.fleet_shards = 2;
      s.slo_ms = 80.0;
      s.prewarm = true;
      break;
  }
  return s;
}

std::string key_name(const std::string& machine, int o, int v) {
  return machine + ":" + std::to_string(o) + ":" + std::to_string(v);
}

std::vector<Key> paper_keys() {
  std::vector<Key> keys;
  for (const char* machine : {"aurora", "frontier"}) {
    for (const auto& p : ccpred::data::problems_for(machine)) {
      keys.push_back({machine, p.o, p.v});
    }
  }
  return keys;
}

namespace {

/// Inclusive training-support box of a machine's (O, V).
struct Support {
  int o_lo, o_hi, v_lo, v_hi;
};

Support support_of(const std::string& machine) {
  const auto& problems = ccpred::data::problems_for(machine);
  Support s{problems[0].o, problems[0].o, problems[0].v, problems[0].v};
  for (const auto& p : problems) {
    s.o_lo = std::min(s.o_lo, p.o);
    s.o_hi = std::max(s.o_hi, p.o);
    s.v_lo = std::min(s.v_lo, p.v);
    s.v_hi = std::max(s.v_hi, p.v);
  }
  return s;
}

/// A uniformly drawn in-support key with at least one feasible
/// configuration.
Key random_support_key(Rng& rng, const std::string& machine) {
  const Support s = support_of(machine);
  while (true) {
    Key key{machine, static_cast<int>(rng.uniform_int(s.o_lo, s.o_hi)),
            static_cast<int>(rng.uniform_int(s.v_lo, s.v_hi))};
    // Memory per node falls as nodes grow, so the largest node count
    // decides whether any configuration of the key fits.
    const auto& sim = simulator(machine);
    const int most_nodes = sim.machine().node_menu().back();
    for (const int t : sim.machine().tile_menu()) {
      if (sim.feasible(
              {.o = key.o, .v = key.v, .nodes = most_nodes, .tile = t})) {
        return key;
      }
    }
  }
}

/// A feasible (nodes, tile) for `key`, drawn uniformly from its grid.
std::pair<int, int> random_feasible_config(Rng& rng, const Key& key) {
  const auto grid = feasible_grid(key);
  CCPRED_CHECK_MSG(!grid.empty(), "no feasible configuration for "
                                      << key_name(key.machine, key.o, key.v));
  return grid[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(grid.size()) - 1))];
}

}  // namespace

int fleet_shard_of(const Request& r, std::size_t shards) {
  static thread_local std::map<std::size_t, ccpred::serve::HashRing> rings;
  auto it = rings.find(shards);
  if (it == rings.end()) {
    ccpred::serve::HashRing ring;
    for (std::size_t i = 0; i < shards; ++i) ring.add(static_cast<int>(i));
    it = rings.emplace(shards, std::move(ring)).first;
  }
  return it->second.owner(ccpred::serve::HashRing::key_hash(
      r.machine, r.model.empty() ? "gb" : r.model, r.o, r.v));
}

std::string encode_message(const Message& m, bool binary) {
  if (binary) return ccpred::serve::wire::encode_request_frame(m.records);
  std::string out;
  for (const Request& r : m.records) {
    out += ccpred::serve::format_request(r);
    out += '\n';
  }
  return out;
}

Generator::Generator(Workload w, std::uint64_t seed, std::size_t connection,
                     const BudgetTable& budgets)
    : workload_(w),
      shape_(shape_of(w)),
      connection_(connection),
      budgets_(budgets),
      rng_(mix(seed, 1 + connection)),
      arrivals_(mix(seed, 0xa771 + connection)),
      paper_(paper_keys()) {
  if (connection + shape_.report_connections >= shape_.connections) {
    gap_ns_ = 1e9 / shape_.report_rate;
    poisson_ = false;
  } else if (shape_.arrival_rate > 0) {
    gap_ns_ = 1e9 *
              static_cast<double>(shape_.connections -
                                  shape_.report_connections) /
              shape_.arrival_rate;
  }
  if (w == Workload::kFeedbackMix) {
    // One fixed key set, shared by every connection so hot keys repeat;
    // the seed draws the sequence. Every seed then meets the same
    // popularity, sweep costs and cache hit rate.
    Rng key_rng(mix(kFeedbackKeySeed, 0));
    double total = 0.0;
    for (std::size_t rank = 0; rank < kFeedbackKeys; ++rank) {
      feedback_keys_.push_back(
          random_support_key(key_rng, rank % 2 == 0 ? "aurora" : "frontier"));
      total += 1.0 / std::pow(static_cast<double>(rank + 1), kZipfExponent);
      feedback_cdf_.push_back(total);
    }
    for (double& c : feedback_cdf_) c /= total;
  }
}

Request Generator::with_id(Request r) {
  r.id = std::to_string(next_record_++ * shape_.connections + connection_);
  return r;
}

Request Generator::warm_question(const Key& key) {
  const double u = rng_.uniform();
  if (u < 0.4) return question(Op::kStq, key);
  if (u < 0.8) return question(Op::kBq, key);
  Request r = question(Op::kBudget, key);
  static constexpr double kFactors[] = {1.25, 1.5, 2.0, 3.0};
  const auto it = budgets_.find(key_name(key.machine, key.o, key.v));
  CCPRED_CHECK_MSG(it != budgets_.end(), "no budget for paper key "
                                             << key_name(key.machine, key.o,
                                                         key.v));
  r.max_node_hours = it->second * kFactors[rng_.uniform_int(0, 3)];
  return r;
}

Request Generator::feedback_question() {
  const double u = rng_.uniform();
  const auto rank = static_cast<std::size_t>(
      std::lower_bound(feedback_cdf_.begin(), feedback_cdf_.end(), u) -
      feedback_cdf_.begin());
  const Key& key = feedback_keys_[std::min(rank, feedback_keys_.size() - 1)];
  return question(rng_.bernoulli(0.5) ? Op::kStq : Op::kBq, key);
}

Request Generator::report() {
  const Key& key = feedback_keys_[static_cast<std::size_t>(rng_.uniform_int(
      0, static_cast<std::int64_t>(feedback_keys_.size()) - 1))];
  const auto [nodes, tile] = random_feasible_config(rng_, key);
  Request r = question(Op::kReport, key);
  r.nodes = nodes;
  r.tile = tile;
  const double scale = key.machine == kDriftMachine ? kDriftScale : 1.0;
  const ccpred::sim::RunConfig cfg{
      .o = key.o, .v = key.v, .nodes = nodes, .tile = tile};
  for (std::size_t i = 0; i < kWallsPerReport; ++i) {
    r.wall_times.push_back(simulator(key.machine).measured_time(cfg, rng_) *
                           scale);
  }
  return r;
}

Message Generator::fleet_frame() {
  const int target = static_cast<int>(frames_++ % shape_.fleet_shards);
  Message m;
  while (m.records.size() < shape_.frame_records) {
    Request r;
    if (rng_.uniform() < kFleetColdShare) {
      r = question(rng_.bernoulli(0.5) ? Op::kStq : Op::kBq,
                   random_support_key(rng_, machine_of(rng_)));
    } else {
      r = warm_question(paper_[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(paper_.size()) - 1))]);
    }
    if (fleet_shard_of(r, shape_.fleet_shards) == target) {
      m.records.push_back(with_id(std::move(r)));
    }
  }
  return m;
}

void Generator::prefetch(std::size_t n) {
  std::deque<Message> ahead;
  for (std::size_t i = 0; i < n; ++i) ahead.push_back(next());
  prefetched_.insert(prefetched_.end(), ahead.begin(), ahead.end());
}

Message Generator::next() {
  if (!prefetched_.empty()) {
    Message m = std::move(prefetched_.front());
    prefetched_.pop_front();
    return m;
  }
  Message m;
  switch (workload_) {
    case Workload::kWarmPipelined:
      m.records.push_back(with_id(warm_question(
          paper_[static_cast<std::size_t>(rng_.uniform_int(
              0, static_cast<std::int64_t>(paper_.size()) - 1))])));
      break;
    case Workload::kFeedbackMix:
      m.records.push_back(with_id(
          connection_ + shape_.report_connections >= shape_.connections
              ? report()
              : feedback_question()));
      break;
    case Workload::kFleetBinary:
      m = fleet_frame();
      break;
    case Workload::kColdOpenLoop:
      throw ccpred::Error("cold_open_loop is scheduled, not generated");
  }
  m.id = ccpred::parse_int(m.records.front().id);
  if (gap_ns_ > 0) {
    m.due_ns = due_ns_;
    // Questions: this connection's share of a Poisson stream. Reports:
    // a fixed period, so every run absorbs the same number.
    due_ns_ += static_cast<std::int64_t>(
        poisson_ ? -std::log1p(-arrivals_.uniform()) * gap_ns_ : gap_ns_);
  }
  return m;
}

std::vector<Message> open_loop_schedule(std::uint64_t seed, double seconds) {
  const WorkloadShape shape = shape_of(Workload::kColdOpenLoop);
  Rng rng(mix(seed, 0x0c01d));
  // A Poisson process conditioned on its count: exactly rate * seconds
  // arrivals at sorted uniform times, so every seed offers the same load.
  const auto count =
      static_cast<std::size_t>(std::llround(shape.arrival_rate * seconds));
  std::vector<double> times(count);
  for (double& t : times) t = rng.uniform(0.0, seconds);
  std::sort(times.begin(), times.end());
  std::vector<Message> schedule;
  for (const double t : times) {
    Message m;
    m.due_ns = static_cast<std::int64_t>(t * 1e9);
    m.id = schedule.size();
    Request r;
    if (schedule.size() >= 3 && rng.uniform() < kRepeatShare) {
      r = schedule[schedule.size() - 1 -
                   static_cast<std::size_t>(rng.uniform_int(0, 2))]
              .records.front();
    } else if (rng.uniform() < kJobShare) {
      r = question(Op::kJob, random_support_key(rng, machine_of(rng)));
      const auto [nodes, tile] =
          random_feasible_config(rng, {r.machine, r.o, r.v});
      r.nodes = nodes;
      r.tile = tile;
    } else {
      r = question(rng.bernoulli(0.5) ? Op::kStq : Op::kBq,
                   random_support_key(rng, machine_of(rng)));
    }
    r.id = std::to_string(m.id);
    m.records.push_back(std::move(r));
    schedule.push_back(std::move(m));
  }
  return schedule;
}

}  // namespace perfbench
