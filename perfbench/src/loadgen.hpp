#pragma once

/// \file loadgen.hpp
/// The client side: drives one workload over loopback TCP and records,
/// per message, when it was due or sent and when its answer arrived. One
/// thread drives every connection of a run, polling them together, so the
/// client holds one core however many connections it keeps open.
///
/// Every answer is checked as it arrives: responses must come back in
/// request order with the request's id. Answers are kept per distinct
/// (question, model version) with a count, for the oracle, so memory grows
/// with distinct questions and answers, not with requests.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "ccpred/serve/protocol.hpp"
#include "workload.hpp"

namespace perfbench {

/// Identity of one question: everything but the request id.
struct QuestionKey {
  int op = 0;
  std::string machine;
  int o = 0, v = 0, nodes = 0, tile = 0;
  double budget = 0.0;
  std::uint64_t model_version = 0;

  auto tie() const {
    return std::tie(op, machine, o, v, nodes, tile, budget, model_version);
  }
  bool operator<(const QuestionKey& other) const {
    return tie() < other.tie();
  }
};

QuestionKey question_key(const ccpred::serve::Request& r,
                         std::uint64_t model_version);

/// Every distinct answer given to one question, with how often.
struct Canon {
  ccpred::serve::Request request;
  std::map<std::string, std::uint64_t> answers;  ///< answer_text -> responses
};

/// The answer part of a JSON response line: everything after the id,
/// minus the per-request `cache_hit` flag.
std::string answer_text(const std::string& line);
/// The answer part of a response: the JSON rendering's answer_text, or,
/// for binary frames, the exact bit patterns of every answer field.
std::string answer_text(const ccpred::serve::Response& r, bool binary);

/// Optional per-message hooks of a traced run, keyed by message id.
class Tracer {
 public:
  virtual ~Tracer() = default;
  virtual void on_send(std::uint64_t id, std::int64_t ns) = 0;
  virtual void on_recv(std::uint64_t id, std::int64_t ns) = 0;
};

/// What one run of a workload measured.
struct RunResult {
  std::int64_t timed_begin_ns = 0;  ///< start of the measured window
  std::int64_t timed_end_ns = 0;    ///< end of the measured window
  /// Per measured message: latency from due (open loop) or send (closed
  /// loop) to answer, ms, including answers that arrive after the window.
  /// Report messages are kept apart.
  std::vector<double> latency_ms;
  std::vector<double> report_latency_ms;
  std::vector<double> lag_ms;  ///< open loop: how late each send ran
  std::vector<std::int64_t> answer_ns;  ///< receive time of each ok record
  std::uint64_t attempted = 0;     ///< records sent (warm-up included)
  std::uint64_t answered_ok = 0;   ///< records answered ok=true
  std::uint64_t not_ok = 0;        ///< records answered ok=false
  std::uint64_t missing = 0;       ///< records never answered
  std::uint64_t conn_errors = 0;   ///< connections lost
  std::uint64_t misordered = 0;    ///< response id != request id
  std::uint64_t timed_sent = 0;    ///< non-report records of measured messages
  std::uint64_t timed_ok = 0;      ///< ... answered ok inside the window
  std::uint64_t within_slo = 0;    ///< ... answered ok within shape.slo_ms
  std::uint64_t timed_reports = 0; ///< report records answered ok in the window
  std::uint64_t report_walls_sent = 0;   ///< wall times sent in reports
  std::uint64_t report_walls_counted = 0;  ///< accepted + duplicates answered
  std::map<QuestionKey, Canon> answers;
  std::vector<std::string> failures;  ///< first few failure descriptions

  /// Adds a failure description (keeps the first few).
  void note(std::string what);
};

/// Timing of one client run: messages are sent during
/// [start, start + warmup + seconds); only the last `seconds` are measured.
/// After that, outstanding answers get `drain_s` before they count as
/// missing.
struct RunWindow {
  double warmup_s = 1.0;
  double seconds = 10.0;
  double drain_s = 15.0;
};

/// Hooks for tests and traced runs (all optional).
struct RunHooks {
  Tracer* tracer = nullptr;
  /// Called on the sending thread right before a message is written.
  std::function<void(std::uint64_t id)> before_send;
  /// Called once with the run's start instant (ns), before any sending.
  std::function<void(std::int64_t t0)> on_start;
};

/// Generated traffic: `gens[c]` feeds connection c. A connection sends
/// each message at its due time while fewer than shape.window messages
/// (one on a report stream) wait for answers; a message that comes due
/// while the window is full goes out on the next answer. Latency counts
/// from the send.
RunResult run_generated(int port, const WorkloadShape& shape,
                        std::vector<Generator>& gens, const RunWindow& window,
                        const RunHooks& hooks = {});

/// Open loop: `schedule` (due offsets from the run start) is sent on time
/// regardless of answers, message i on connection i % shape.connections.
/// Latency counts from each message's due time.
RunResult run_open_loop(int port, const WorkloadShape& shape,
                        const std::vector<Message>& schedule,
                        const RunWindow& window, const RunHooks& hooks = {});

/// Runs workload `w` at `port`: its generators, or (cold_open_loop) the
/// open-loop schedule covering the warm-up and the measured window.
RunResult drive(int port, Workload w, std::uint64_t seed,
                const BudgetTable& budgets, const RunWindow& window,
                const RunHooks& hooks = {});

/// Caches every paper key's sweep (one STQ each). Returns false if any
/// answer is missing or not ok.
bool warm_paper_sweeps(int port);

/// Opens a loopback TCP connection (TCP_NODELAY); -1 on failure.
int connect_loopback(int port);

/// One request/response round trip of JSON lines on a fresh connection;
/// returns the response lines (empty on any failure or timeout).
std::vector<std::string> roundtrip_lines(int port,
                                         const std::vector<std::string>& lines,
                                         double timeout_s);

}  // namespace perfbench
