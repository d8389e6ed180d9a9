#include "traced.hpp"

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/resource.h>

#include "ccpred/common/strings.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/dataset.hpp"
#include "ccpred/guidance/advisor.hpp"
#include "ccpred/serve/event_loop.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/server.hpp"
#include "ccpred/serve/wire.hpp"
#include "ccpred/sim/solver.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "summary.hpp"

namespace perfbench {

using ccpred::serve::Op;
using ccpred::serve::Request;
using ccpred::serve::Response;

namespace {

/// Verb slots of the service-time spans: the protocol ops, then frames.
constexpr int kFrameVerb = static_cast<int>(ccpred::serve::kNumOps);
/// Spans written out per run (the in-memory record keeps them all).
constexpr std::size_t kMaxSpansWritten = 200'000;

const char* verb_name(int verb) {
  return verb == kFrameVerb ? "frame"
                            : ccpred::serve::op_name(static_cast<Op>(verb));
}

/// Four timestamps per message id, each written by one thread: client
/// send and receive (connection thread), dispatch entry (event-loop
/// thread), completion (worker thread). Slots live in lazily allocated
/// chunks so ids need no preallocated bound.
class SpanTracer : public Tracer {
 public:
  struct Slot {
    std::atomic<std::int64_t> send{0}, dispatch{0}, complete{0}, recv{0};
    std::atomic<int> verb{-1};
  };

  ~SpanTracer() override {
    for (auto& c : chunks_) delete[] c.load();
  }

  std::atomic<bool> enabled{false};

  void on_send(std::uint64_t id, std::int64_t ns) override {
    if (Slot* s = slot(id, true); s != nullptr && enabled.load()) {
      s->send.store(ns, std::memory_order_relaxed);
    }
  }
  void on_recv(std::uint64_t id, std::int64_t ns) override {
    if (Slot* s = slot(id, false); s != nullptr && enabled.load()) {
      s->recv.store(ns, std::memory_order_relaxed);
    }
  }
  void on_dispatch(const std::string& id, int verb) {
    if (!enabled.load()) return;
    if (Slot* s = slot(parse_id(id), false)) {
      s->dispatch.store(now_ns(), std::memory_order_relaxed);
      s->verb.store(verb, std::memory_order_relaxed);
    }
  }
  void on_complete(const std::string& id) {
    if (Slot* s = slot(parse_id(id), false)) {
      s->complete.store(now_ns(), std::memory_order_relaxed);
    }
  }

  /// Visits every slot with at least a send stamp.
  template <typename F>
  void for_each(F f) const {
    for (std::size_t c = 0; c < kChunks; ++c) {
      const Slot* chunk = chunks_[c].load();
      if (chunk == nullptr) continue;
      for (std::size_t i = 0; i < kChunk; ++i) {
        if (chunk[i].send.load(std::memory_order_relaxed) != 0) {
          f(c * kChunk + i, chunk[i]);
        }
      }
    }
  }

 private:
  static constexpr std::size_t kChunk = 1u << 16;
  static constexpr std::size_t kChunks = 1u << 12;

  static std::uint64_t parse_id(const std::string& id) {
    std::uint64_t v = 0;
    for (const char ch : id) {
      if (ch < '0' || ch > '9') return ~std::uint64_t{0};
      v = v * 10 + static_cast<std::uint64_t>(ch - '0');
    }
    return v;
  }

  Slot* slot(std::uint64_t id, bool create) {
    const std::size_t c = id / kChunk;
    if (c >= kChunks) return nullptr;
    Slot* chunk = chunks_[c].load(std::memory_order_acquire);
    if (chunk == nullptr && create) {
      std::lock_guard<std::mutex> lock(alloc_mutex_);
      chunk = chunks_[c].load(std::memory_order_acquire);
      if (chunk == nullptr) {
        chunk = new Slot[kChunk];
        chunks_[c].store(chunk, std::memory_order_release);
      }
    }
    return chunk == nullptr ? nullptr : &chunk[id % kChunk];
  }

  std::mutex alloc_mutex_;
  std::array<std::atomic<Slot*>, kChunks> chunks_{};
};

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

/// User + system CPU of this process, s.
double process_cpu_s() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

/// Median seconds per call of `body` over `rounds` rounds of `calls`.
template <typename F>
double per_call_s(std::size_t rounds, std::size_t calls, F body) {
  std::vector<double> samples;
  for (std::size_t r = 0; r < rounds; ++r) {
    const std::int64_t t = now_ns();
    for (std::size_t i = 0; i < calls; ++i) body(i);
    samples.push_back(static_cast<double>(now_ns() - t) / 1e9 /
                      static_cast<double>(calls));
  }
  return median(samples);
}

void write_spans(const SpanTracer& tracer, const std::string& path) {
  std::ofstream out(path);
  std::size_t written = 0;
  tracer.for_each([&](std::uint64_t id, const SpanTracer::Slot& s) {
    if (written >= kMaxSpansWritten) return;
    const std::int64_t recv = s.recv.load(std::memory_order_relaxed);
    if (recv == 0) return;
    out << "{\"id\":" << id << ",\"name\":\"client.request\",\"start\":"
        << s.send.load(std::memory_order_relaxed) << ",\"end\":" << recv
        << ",\"parent\":null}\n";
    const std::int64_t d = s.dispatch.load(std::memory_order_relaxed);
    const std::int64_t c = s.complete.load(std::memory_order_relaxed);
    if (d != 0 && c != 0) {
      out << "{\"id\":" << id << ",\"name\":\"server.dispatch\",\"verb\":\""
          << verb_name(s.verb.load(std::memory_order_relaxed))
          << "\",\"start\":" << d << ",\"end\":" << c
          << ",\"parent\":\"client.request\"}\n";
    }
    ++written;
  });
}

}  // namespace

std::vector<Request> sample_requests(Workload w, std::uint64_t seed,
                                     const BudgetTable& budgets,
                                     std::size_t n) {
  std::vector<Request> out;
  if (w == Workload::kColdOpenLoop) {
    for (const Message& m : open_loop_schedule(seed, 60.0)) {
      if (out.size() == n) break;
      out.push_back(m.records.front());
    }
    return out;
  }
  const WorkloadShape shape = shape_of(w);
  std::vector<Generator> gens;
  for (std::size_t c = 0; c < shape.connections; ++c) {
    gens.emplace_back(w, seed, c, budgets);
  }
  for (std::size_t c = 0; out.size() < n; c = (c + 1) % shape.connections) {
    for (Request& r : gens[c].next().records) {
      if (out.size() < n) out.push_back(std::move(r));
    }
  }
  return out;
}

void run_traced(Workload w, std::uint64_t seed, double seconds,
                const BudgetTable& budgets, const std::string& artifact_dir,
                const std::string& spans_path, Metrics& metrics) {
  const WorkloadShape shape = shape_of(w);
  ccpred::serve::ModelRegistry registry(artifact_dir);
  ccpred::serve::ServeOptions opt;  // serverd's defaults
  opt.batch.enabled = true;
  opt.online.enabled = shape.online;
  opt.online.min_refit_rows = shape.min_refit_rows;
  ccpred::serve::Server server(registry, opt);
  SpanTracer tracer;

  const auto dispatch = [&](Request request,
                            ccpred::serve::EventLoopServer::Completion done) {
    if (!tracer.enabled.load()) {
      server.submit_with(std::move(request), std::move(done));
      return;
    }
    tracer.on_dispatch(request.id, static_cast<int>(request.op));
    server.submit_with(std::move(request),
                       [&tracer, done = std::move(done)](Response r) {
                         tracer.on_complete(r.id);
                         done(std::move(r));
                       });
  };
  const auto batch_dispatch =
      [&](std::vector<Request> batch,
          ccpred::serve::EventLoopServer::BatchCompletion done) {
        if (!tracer.enabled.load() || batch.empty()) {
          server.submit_batch_with(std::move(batch), std::move(done));
          return;
        }
        std::string id = batch.front().id;
        tracer.on_dispatch(id, kFrameVerb);
        server.submit_batch_with(
            std::move(batch),
            [&tracer, id = std::move(id),
             done = std::move(done)](std::vector<Response> r) {
              tracer.on_complete(id);
              done(std::move(r));
            });
      };
  ccpred::serve::EventLoopServer listener(dispatch, batch_dispatch, {});
  server.set_overflow_source(
      [&listener] { return listener.stats().overflow_closes; });
  if (shape.prewarm) warm_paper_sweeps(listener.port());

  // off, on, on, off: the toggles land on the segment boundaries of the
  // measured window, which starts warmup_s after the run's start instant.
  RunWindow window;
  window.seconds = seconds;
  window.warmup_s = shape.warmup_s;
  std::vector<std::int64_t> bounds;
  std::vector<double> cpu_at;  // process CPU seconds at each bound
  std::promise<std::int64_t> started;
  std::thread toggler([&, start = started.get_future()]() mutable {
    const std::int64_t begin =
        start.get() + static_cast<std::int64_t>(window.warmup_s * 1e9);
    const auto segment = static_cast<std::int64_t>(seconds / 4 * 1e9);
    for (int i = 0; i <= 4; ++i) {
      const std::int64_t at = begin + i * segment;
      std::this_thread::sleep_for(std::chrono::nanoseconds(at - now_ns()));
      tracer.enabled.store(i == 1 || i == 2);
      bounds.push_back(now_ns());
      cpu_at.push_back(process_cpu_s());
    }
  });
  RunHooks hooks;
  hooks.tracer = &tracer;
  hooks.on_start = [&started](std::int64_t t0) { started.set_value(t0); };
  const RunResult result = drive(listener.port(), w, seed, budgets, window, hooks);
  toggler.join();

  // CPU per answer of the whole process (client, loop, workers) in each
  // segment: the load is paced, so tracing shows as work, not as rate.
  double on = 0.0, off = 0.0;
  for (int i = 0; i < 4; ++i) {
    const auto n = std::count_if(
        result.answer_ns.begin(), result.answer_ns.end(),
        [&](std::int64_t t) { return t >= bounds[i] && t < bounds[i + 1]; });
    const double cpu_per_answer =
        (cpu_at[i + 1] - cpu_at[i]) / static_cast<double>(std::max<long>(1, n));
    (i == 1 || i == 2 ? on : off) += cpu_per_answer / 2;
  }
  metrics["trace_overhead_share"] = on > 0 ? 1.0 - off / on : 0.0;

  std::vector<double> ingress, egress;
  std::map<int, std::vector<double>> service;
  tracer.for_each([&](std::uint64_t, const SpanTracer::Slot& s) {
    const std::int64_t send = s.send.load(std::memory_order_relaxed);
    const std::int64_t d = s.dispatch.load(std::memory_order_relaxed);
    const std::int64_t c = s.complete.load(std::memory_order_relaxed);
    const std::int64_t recv = s.recv.load(std::memory_order_relaxed);
    if (d == 0 || c == 0) return;
    service[s.verb.load(std::memory_order_relaxed)].push_back(us(c - d));
    if (recv == 0) return;
    ingress.push_back(us(d - send));
    egress.push_back(us(recv - c));
  });
  const LatencySummary in = summarize(ingress);
  const LatencySummary out = summarize(egress);
  metrics["serve.event_loop.ingress_p50_us"] = in.p50;
  metrics["serve.event_loop.ingress_p99_us"] = in.p99;
  metrics["serve.event_loop.egress_p50_us"] = out.p50;
  metrics["serve.event_loop.egress_p99_us"] = out.p99;
  for (int verb = 0; verb <= kFrameVerb; ++verb) {
    if (static_cast<Op>(verb) == Op::kStats) continue;
    const LatencySummary s = summarize(service[verb]);
    metrics[std::string("serve.server.service_p50_us.") + verb_name(verb)] =
        s.p50;
    metrics[std::string("serve.server.service_p99_us.") + verb_name(verb)] =
        s.p99;
  }
  metrics["traced.spans"] = static_cast<double>(ingress.size());
  write_spans(tracer, spans_path);
}

void micro_timings(const std::vector<Request>& requests,
                   const std::string& artifact_dir, Metrics& metrics) {
  std::vector<std::string> lines;
  for (const Request& r : requests) {
    lines.push_back(ccpred::serve::format_request(r));
  }
  metrics["serve.protocol.parse_ns"] =
      1e9 * per_call_s(5, lines.size(), [&](std::size_t i) {
        const Request r = ccpred::serve::parse_request(lines[i]);
        if (r.o < 0) std::abort();
      });

  const std::string text = [&] {
    std::ifstream in(artifact_path(artifact_dir, "aurora"));
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const std::string frontier_text = [&] {
    std::ifstream in(artifact_path(artifact_dir, "frontier"));
    return std::string(std::istreambuf_iterator<char>(in), {});
  }();
  const auto aurora = ccpred::ml::deserialize_gb(text);
  const auto frontier = ccpred::ml::deserialize_gb(frontier_text);
  const auto model_for = [&](const std::string& machine)
      -> const ccpred::ml::Regressor& {
    return machine == "aurora" ? static_cast<const ccpred::ml::Regressor&>(aurora)
                               : frontier;
  };

  // The answers the daemon sends for these requests (reports excluded).
  std::vector<Request> questions;
  for (const Request& r : requests) {
    if (r.op != Op::kReport && questions.size() < 64) questions.push_back(r);
  }
  std::vector<Response> responses;
  for (const Request& r : questions) {
    Response resp = expected_response(r, model_for(r.machine), 1);
    resp.id = r.id;
    responses.push_back(std::move(resp));
  }
  metrics["serve.protocol.format_ns"] =
      1e9 * per_call_s(5, responses.size() * 16, [&](std::size_t i) {
        const std::string s =
            ccpred::serve::format_response(responses[i % responses.size()]);
        if (s.empty()) std::abort();
      });

  // Frames of 16 records, as fleet_binary sends them.
  std::vector<Request> frame_requests(requests.begin(),
                                      requests.begin() + std::min<std::size_t>(
                                                             16, requests.size()));
  std::vector<Response> frame_responses(
      responses.begin(),
      responses.begin() + std::min<std::size_t>(16, responses.size()));
  metrics["serve.wire.encode_frame_us"] =
      1e6 * per_call_s(5, 2000, [&](std::size_t) {
        const std::string f =
            ccpred::serve::wire::encode_response_frame(frame_responses);
        if (f.empty()) std::abort();
      });
  const std::string frame =
      ccpred::serve::wire::encode_request_frame(frame_requests);
  ccpred::serve::wire::FrameHeader header;
  std::string error;
  const auto* bytes = reinterpret_cast<const unsigned char*>(frame.data());
  ccpred::serve::wire::probe_frame(bytes, frame.size(), &header, &error);
  metrics["serve.wire.decode_frame_us"] =
      1e6 * per_call_s(5, 2000, [&](std::size_t) {
        const auto decoded = ccpred::serve::wire::decode_request_frame(
            header, bytes + ccpred::serve::wire::kHeaderBytes);
        if (decoded.empty()) std::abort();
      });

  std::vector<double> loads;
  for (int rep = 0; rep < 3; ++rep) {
    ccpred::serve::ModelRegistry registry(artifact_dir);
    const std::int64_t t = now_ns();
    registry.get("aurora", "gb");
    loads.push_back(static_cast<double>(now_ns() - t) / 1e6);
  }
  metrics["serve.model_registry.load_ms"] = median(loads);
  ccpred::serve::ModelRegistry registry(artifact_dir);
  registry.get("aurora", "gb");
  metrics["serve.model_registry.get_us"] =
      1e6 * per_call_s(5, 2000, [&](std::size_t) {
        if (registry.get("aurora", "gb").model == nullptr) std::abort();
      });

  // Sweep, predict and job estimate on the workload's own keys.
  std::vector<double> sweep_ms, predict_us, job_ms;
  for (std::size_t i = 0; i < questions.size() && i < 16; ++i) {
    const Request& r = questions[i];
    const auto simulator = ccpred::serve::simulator_for(r.machine);
    const ccpred::guide::Advisor advisor(model_for(r.machine), simulator);
    std::int64_t t = now_ns();
    const auto rec =
        advisor.recommend(r.o, r.v, ccpred::guide::Objective::kShortestTime);
    sweep_ms.push_back(static_cast<double>(now_ns() - t) / 1e6);

    ccpred::linalg::Matrix x(rec.sweep.size(), ccpred::data::kNumFeatures);
    for (std::size_t k = 0; k < rec.sweep.size(); ++k) {
      const auto& cfg = rec.sweep[k].config;
      x(k, ccpred::data::kFeatO) = cfg.o;
      x(k, ccpred::data::kFeatV) = cfg.v;
      x(k, ccpred::data::kFeatNodes) = cfg.nodes;
      x(k, ccpred::data::kFeatTile) = cfg.tile;
    }
    t = now_ns();
    const auto y = model_for(r.machine).predict(x);
    predict_us.push_back(static_cast<double>(now_ns() - t) / 1e3);
    if (y.size() != rec.sweep.size()) std::abort();

    const ccpred::sim::RunConfig cfg =
        r.op == Op::kJob ? ccpred::sim::RunConfig{.o = r.o, .v = r.v,
                                                  .nodes = r.nodes,
                                                  .tile = r.tile}
                         : rec.config;
    t = now_ns();
    const auto job = ccpred::sim::estimate_job(simulator, cfg);
    job_ms.push_back(static_cast<double>(now_ns() - t) / 1e6);
    if (!(job.total_s > 0)) std::abort();
  }
  metrics["guidance.sweep_ms"] = median(sweep_ms);
  metrics["core.predict_batch_us"] = median(predict_us);
  metrics["sim.estimate_job_ms"] = median(job_ms);
}

}  // namespace perfbench
