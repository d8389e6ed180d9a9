#pragma once

/// \file workload.hpp
/// The four traffic shapes of the benchmark and their seeded request
/// generators. A generator is a pure function of (workload, seed, budget
/// table): the same inputs give a byte-identical request stream, and the
/// daemon receives nothing but these requests.
///
/// Questions are paced: each connection sends its share of a seeded
/// Poisson stream at a fixed rate, with at most a small window waiting for
/// answers, so a slower daemon shows as latency and CPU rather than as
/// fewer requests, and a stalled host delays few requests.
///
///  * warm_pipelined — 10k questions/s over 4 connections, up to 4 in
///    flight on each; STQ/BQ/budget over the 42 paper problem sizes, all
///    sweeps cached before timing. Puts the event loop, parse/format,
///    batch coalescing and cache-hit answers on the critical path with
///    sweep compute absent.
///  * cold_open_loop — open loop; seeded Poisson arrivals at 300/s spread
///    over 4 pipelined connections, keys uniform over the training support
///    (far larger than the 256-sweep cache), ~10% repeats of a key still
///    in flight, 15% simulator `job` requests on configurations drawn
///    uniformly from the feasible grid. Sweep, predict and simulator
///    compute dominate.
///  * feedback_mix — against `--online 1`; 3 connections ask 500 STQ/BQ
///    questions/s (one in flight each) over a Zipf draw from ~1000
///    in-support keys (partial hit rate), 1 connection sends a `report`
///    batch every 50 ms whose walls are scaled on one machine so drift
///    trips. Reports are ingested, deduplicated and absorbed into the live
///    surrogate; no refit can start within a run.
///  * fleet_binary — against `--fleet 2`; 4 connections send 50 binary
///    frames/s (one in flight each) of 16 records sharing one destination
///    shard; 3/4 warm paper keys, 1/4 cold in-support keys.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "ccpred/common/rng.hpp"
#include "ccpred/serve/protocol.hpp"

namespace perfbench {

enum class Workload { kWarmPipelined, kColdOpenLoop, kFeedbackMix, kFleetBinary };

/// Parses a workload name; throws ccpred::Error on an unknown one.
Workload parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Fixed shape of each workload (connections, windows, rates, mix).
struct WorkloadShape {
  std::size_t connections = 4;    ///< client connections
  /// Most messages a question connection has waiting for answers.
  std::size_t window = 0;
  std::size_t frame_records = 1;  ///< records per message (binary frames > 1)
  /// Messages per second over all question connections (report streams
  /// excluded); cold_open_loop sends on time regardless of the window.
  double arrival_rate = 0.0;
  std::size_t report_connections = 0;  ///< feedback_mix: report streams
  double report_rate = 0.0;  ///< reports per second on each report stream
  /// --online-min-refit-rows: buffered measurements before a refit.
  std::size_t min_refit_rows = 0;
  bool binary = false;            ///< binary wire frames instead of JSON lines
  bool online = false;            ///< daemon runs with --online 1
  std::size_t fleet_shards = 0;   ///< daemon runs with --fleet N (0 = single)
  /// Latency limit of `within_slo_share`, set per workload from the lone
  /// p50 of its messages: about 5x a cold single-record request (20 ms) or
  /// a 16-record frame (80 ms); 0.5 ms for cache-hit questions.
  double slo_ms = 20.0;
  /// Unmeasured traffic before the measured window.
  double warmup_s = 1.0;
  /// Cache every paper key's sweep before any traffic.
  bool prewarm = false;
};

WorkloadShape shape_of(Workload w);

/// One (machine, O, V) problem key.
struct Key {
  std::string machine;
  int o = 0;
  int v = 0;
};

/// Minimum model-predicted node-hours per paper key ("machine:o:v"), used
/// to draw budgets that are always feasible under the served model.
using BudgetTable = std::map<std::string, double>;
std::string key_name(const std::string& machine, int o, int v);

/// The 42 paper problem sizes of both machines (aurora first).
std::vector<Key> paper_keys();

/// One generated message: a single request, or the records of one frame.
struct Message {
  std::vector<ccpred::serve::Request> records;
  std::int64_t due_ns = 0;  ///< open loop: offset from the schedule start
  std::uint64_t id = 0;     ///< id of the first record (span key)
};

/// Deterministic request source for one client connection. Ids are
/// globally unique across connections: record k of connection c carries
/// id k * connections + c (closed loop) or its arrival index (open loop).
class Generator {
 public:
  Generator(Workload w, std::uint64_t seed, std::size_t connection,
            const BudgetTable& budgets);

  /// Next message of this connection, with its due time (offset from the
  /// run start) when the connection is paced: a question connection's
  /// share of a seeded Poisson stream at shape.arrival_rate, or a report
  /// stream's fixed period. Unpaced (closed-loop) messages are due at 0.
  Message next();

  /// Generates the next `n` messages now, so that next() returns them
  /// without computing; the stream is the same either way.
  void prefetch(std::size_t n);

 private:
  ccpred::serve::Request warm_question(const Key& key);
  ccpred::serve::Request feedback_question();
  ccpred::serve::Request report();
  Message fleet_frame();
  ccpred::serve::Request with_id(ccpred::serve::Request r);

  Workload workload_;
  WorkloadShape shape_;
  std::size_t connection_;
  BudgetTable budgets_;
  ccpred::Rng rng_;
  ccpred::Rng arrivals_;      ///< due times, apart from the request stream
  double gap_ns_ = 0.0;       ///< mean gap between due times; 0: not paced
  bool poisson_ = true;       ///< exponential gaps, else a fixed period
  std::int64_t due_ns_ = 0;
  std::uint64_t next_record_ = 0;
  std::uint64_t frames_ = 0;
  std::vector<Key> paper_;
  std::vector<Key> feedback_keys_;      ///< Zipf-ranked key set
  std::vector<double> feedback_cdf_;    ///< cumulative Zipf weights
  std::deque<Message> prefetched_;
};

/// The whole open-loop schedule of cold_open_loop for `seconds` of
/// arrivals, in due order; arrival i goes to connection i % connections.
std::vector<Message> open_loop_schedule(std::uint64_t seed, double seconds);

/// The frame's records all route to `shard` under serverd's fleet ring.
int fleet_shard_of(const ccpred::serve::Request& r, std::size_t shards);

/// Wire bytes of one message (JSON lines joined by '\n', or one frame).
std::string encode_message(const Message& m, bool binary);

}  // namespace perfbench
