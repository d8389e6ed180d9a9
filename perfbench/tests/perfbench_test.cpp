/// The benchmark's own tests: the tail-percentile rule, seeded request
/// streams, failure accounting, and due-time latency under a stalled
/// generator. The servers here are EventLoopServers with scripted
/// dispatch callbacks, so no daemon or trained production model is needed.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "ccpred/core/serialize.hpp"
#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "summary.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using ccpred::serve::EventLoopServer;
using ccpred::serve::Request;
using ccpred::serve::Response;

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  for (const std::size_t n : {20u, 100u, 1000u, 10000u, 123456u}) {
    EXPECT_GE(samples_beyond(n, highest_supported_percentile(n)), kTailSamples);
  }
}

TEST(Percentile, SummaryReportsTailAndCount) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const LatencySummary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.p99, 990.0);
  EXPECT_EQ(s.tail_percentile, 99.0);
  EXPECT_EQ(s.tail, 990.0);
}

BudgetTable unit_budgets() {
  BudgetTable b;
  for (const Key& k : paper_keys()) b[key_name(k.machine, k.o, k.v)] = 1.0;
  return b;
}

std::string stream_bytes(Workload w, std::uint64_t seed,
                         const BudgetTable& budgets) {
  const WorkloadShape shape = shape_of(w);
  std::string bytes;
  if (w == Workload::kColdOpenLoop) {
    for (const Message& m : open_loop_schedule(seed, 2.0)) {
      bytes += std::to_string(m.due_ns) + ":" + encode_message(m, false);
    }
    return bytes;
  }
  for (std::size_t c = 0; c < shape.connections; ++c) {
    Generator gen(w, seed, c, budgets);
    for (int i = 0; i < 50; ++i) {
      const Message m = gen.next();
      bytes += std::to_string(m.due_ns) + ":" + encode_message(m, shape.binary);
    }
  }
  return bytes;
}

TEST(RequestStream, SeedGivesByteIdenticalStream) {
  const BudgetTable budgets = unit_budgets();
  for (const Workload w :
       {Workload::kWarmPipelined, Workload::kColdOpenLoop,
        Workload::kFeedbackMix, Workload::kFleetBinary}) {
    SCOPED_TRACE(workload_name(w));
    const std::string a = stream_bytes(w, 7, budgets);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, stream_bytes(w, 7, budgets));
    EXPECT_NE(a, stream_bytes(w, 8, budgets));
  }
}

TEST(RequestStream, PrefetchKeepsTheStream) {
  const BudgetTable budgets = unit_budgets();
  // Connection 3 of feedback_mix streams reports.
  Generator live(Workload::kFeedbackMix, 5, 3, budgets);
  Generator ahead(Workload::kFeedbackMix, 5, 3, budgets);
  ahead.prefetch(4);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(encode_message(live.next(), false),
              encode_message(ahead.next(), false));
  }
}

TEST(RequestStream, PacedConnectionsShareTheArrivalRate) {
  const BudgetTable budgets = unit_budgets();
  for (const Workload w : {Workload::kWarmPipelined, Workload::kFeedbackMix,
                           Workload::kFleetBinary}) {
    SCOPED_TRACE(workload_name(w));
    const WorkloadShape shape = shape_of(w);
    const std::size_t paced = shape.connections - shape.report_connections;
    ASSERT_GT(shape.arrival_rate, 0.0);
    for (std::size_t c = 0; c < paced; ++c) {
      Generator gen(w, 9, c, budgets);
      std::int64_t last = -1;
      constexpr int kMessages = 4000;
      for (int i = 0; i < kMessages; ++i) {
        const std::int64_t due = gen.next().due_ns;
        ASSERT_GE(due, last);
        last = due;
      }
      // Mean gap within 5% of paced / rate (sd of the mean: 1/sqrt(4000)).
      const double rate = kMessages / (static_cast<double>(last) / 1e9);
      EXPECT_NEAR(rate * static_cast<double>(paced), shape.arrival_rate,
                  0.05 * shape.arrival_rate);
    }
    // A report stream keeps a fixed period.
    if (shape.report_connections > 0) {
      Generator reports(w, 9, paced, budgets);
      const auto period = static_cast<std::int64_t>(1e9 / shape.report_rate);
      for (std::int64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(reports.next().due_ns, i * period);
      }
    }
  }
}

TEST(RequestStream, FleetFramesShareOneShard) {
  Generator gen(Workload::kFleetBinary, 3, 0, unit_budgets());
  for (int i = 0; i < 20; ++i) {
    const Message m = gen.next();
    ASSERT_EQ(m.records.size(), 16u);
    for (const Request& r : m.records) {
      EXPECT_EQ(fleet_shard_of(r, 2), fleet_shard_of(m.records.front(), 2));
    }
  }
}

/// Trains tiny GB artifacts for both machines once per test binary.
const Snapshots& tiny_models() {
  static const Snapshots snapshots = [] {
    // Under the working directory, so the tests write nowhere else.
    const std::string dir = "perfbench_test_" + std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    ccpred::serve::RegistryOptions opt;
    opt.fallback_rows = 120;
    opt.gb_estimators = 5;
    ccpred::serve::ModelRegistry registry(dir, opt);
    Snapshots s;
    for (const char* m : {"aurora", "frontier"}) {
      registry.train_artifact(m, "gb");
      std::ifstream in(artifact_path(dir, m));
      s[m].push_back(std::string(std::istreambuf_iterator<char>(in), {}));
    }
    std::filesystem::remove_all(dir);
    return s;
  }();
  return snapshots;
}

TEST(Accounting, FailedShareCountsNotOkMissingAndWrong) {
  const Snapshots& snaps = tiny_models();
  std::map<std::string, ccpred::ml::GradientBoostingRegressor> models;
  for (const auto& [m, texts] : snaps) {
    models.emplace(m, ccpred::ml::deserialize_gb(texts.front()));
  }
  const BudgetTable budgets = budget_table(snaps);

  // Connection 0 of warm_pipelined's four sends ids 0, 4, 8, ...
  // Scripted answers: id 12 is refused, id 24 never answered, ids 4 and 16
  // answered with a wrong node count.
  const std::set<std::string> wrong = {"4", "16"};
  std::mutex mutex;
  std::set<std::string> wrong_sent;
  const auto dispatch = [&](Request r, EventLoopServer::Completion done) {
    if (r.id == "24") return;
    if (r.id == "12") {
      done(ccpred::serve::error_response("refused", "stq", r.id, "internal"));
      return;
    }
    Response resp = expected_response(r, models.at(r.machine), 1);
    resp.id = r.id;
    if (wrong.count(r.id)) {
      resp.nodes += 1;
      std::lock_guard<std::mutex> lock(mutex);
      wrong_sent.insert(r.id);
    }
    done(resp);
  };
  EventLoopServer server(dispatch);
  WorkloadShape shape = shape_of(Workload::kWarmPipelined);
  shape.connections = 1;
  shape.window = 1;
  std::vector<Generator> gens;
  gens.emplace_back(Workload::kWarmPipelined, 11, 0, budgets);
  RunWindow window;
  window.warmup_s = 0.0;
  window.seconds = 2.0;
  window.drain_s = 0.2;
  const RunResult run = run_generated(server.port(), shape, gens, window);

  // With one message in flight, the unanswered id 24 is the last one ever
  // sent: ids 0, 4, ..., 24 were attempted.
  EXPECT_EQ(run.attempted, 7u);
  EXPECT_EQ(run.not_ok, 1u);
  EXPECT_EQ(run.missing, 1u);
  EXPECT_EQ(run.misordered, 0u);
  const Verdict verdict = check_answers(run.answers, snaps, false, 2);
  EXPECT_EQ(verdict.wrong_records, wrong_sent.size());
  EXPECT_EQ(failed_records(run, verdict), 2u + wrong_sent.size());
  EXPECT_EQ(wrong_sent.size(), 2u);
}

TEST(Accounting, RightAnswersPassTheOracle) {
  const Snapshots& snaps = tiny_models();
  const auto model = ccpred::ml::deserialize_gb(snaps.at("aurora").front());
  std::map<QuestionKey, Canon> answers;
  Request r;
  r.op = ccpred::serve::Op::kBq;
  r.machine = "aurora";
  r.o = 134;
  r.v = 951;
  Canon c;
  c.request = r;
  c.answers[answer_text(expected_response(r, model, 4), true)] = 3;
  answers[question_key(r, 4)] = c;
  Verdict v = check_answers(answers, snaps, true, 1);
  EXPECT_EQ(v.questions, 1u);
  EXPECT_EQ(v.wrong_records, 0u);
  // The same answer claimed for another problem is wrong three times over.
  Request other = r;
  other.o = 99;
  other.v = 718;
  c.request = other;
  answers.clear();
  answers[question_key(other, 4)] = c;
  v = check_answers(answers, snaps, true, 1);
  EXPECT_EQ(v.wrong_records, 3u);
}

TEST(OpenLoop, LatencyCountsFromDueTimeThroughAStall) {
  const auto dispatch = [](Request r, EventLoopServer::Completion done) {
    Response resp;
    resp.ok = true;
    resp.op = ccpred::serve::op_name(r.op);
    resp.id = r.id;
    done(resp);
  };
  EventLoopServer server(dispatch);
  WorkloadShape shape = shape_of(Workload::kColdOpenLoop);
  shape.connections = 1;
  // 100 messages due every 5 ms; the generator stalls 100 ms at message 20.
  std::vector<Message> schedule;
  for (int i = 0; i < 100; ++i) {
    Message m;
    m.id = i;
    m.due_ns = i * 5'000'000LL;
    Request r;
    r.op = ccpred::serve::Op::kStq;
    r.machine = "aurora";
    r.o = 44 + i;
    r.v = 260;
    r.id = std::to_string(i);
    m.records.push_back(r);
    schedule.push_back(m);
  }
  RunHooks hooks;
  hooks.before_send = [](std::uint64_t id) {
    if (id == 20) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  };
  RunWindow window;
  window.warmup_s = 0.0;
  window.seconds = 0.6;
  window.drain_s = 1.0;
  const RunResult run = run_open_loop(server.port(), shape, schedule, window,
                                      hooks);
  ASSERT_EQ(run.latency_ms.size(), 100u);
  ASSERT_EQ(run.lag_ms.size(), 100u);
  // Message 20 itself and those due during the stall wait it out: a
  // message due at 5k ms into the stall reports at least (100 - 5k) ms.
  for (int i = 20; i < 38; ++i) {
    const double stall_left_ms = 100.0 - (i - 20) * 5.0;
    EXPECT_GE(run.latency_ms[i], stall_left_ms * 0.9) << "message " << i;
    EXPECT_GE(run.lag_ms[i], stall_left_ms * 0.9) << "message " << i;
  }
  // Messages due well before the stall are unaffected.
  for (int i = 0; i < 15; ++i) EXPECT_LT(run.latency_ms[i], 50.0);
  std::vector<double> lag = run.lag_ms;
  EXPECT_GE(summarize(lag).p99, 90.0);
  EXPECT_EQ(run.missing + run.not_ok + run.misordered, 0u);
}

}  // namespace
}  // namespace perfbench
