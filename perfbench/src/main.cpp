/// perfbench — drives the real ccpred_serverd over loopback sockets with
/// one of four seeded workloads, checks every answer, and prints every
/// metric by name with its unit. The last line of standard output is one
/// JSON object: {"correct", "attempted", "failed", "metrics"}. With
/// --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
/// the per-layer ones (see README.md beside this file).
///
/// usage: perfbench --workload W --seed N --seconds S --trace 0|1
///                  --serverd PATH --workdir DIR --spans PATH
///                  [--git-rev R] [--source-digest D]

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_util.hpp"
#include "ccpred/common/error.hpp"
#include "ccpred/common/strings.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/guidance/advisor.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/serve/wire.hpp"
#include "daemon.hpp"
#include "loadgen.hpp"
#include "oracle.hpp"
#include "summary.hpp"
#include "traced.hpp"
#include "workload.hpp"

namespace fs = std::filesystem;
using namespace perfbench;
using ccpred::serve::Op;
using ccpred::serve::Request;

namespace {

/// Daemon spawns per run; setup_s is their median.
constexpr int kSetupReps = 7;
/// Seed of the artifact-training campaign (fixed across workload seeds).
constexpr const char* kTrainSeed = "2025";
/// Seconds a daemon gets to exit after stdin EOF before it counts as hung.
constexpr double kStopTimeoutS = 60.0;
/// Fleet router hop: frame round trips per path.
constexpr int kHopTrips = 200;
const std::vector<std::string> kMachines = {"aurora", "frontier"};

struct Args {
  std::string workload, serverd, workdir, spans;
  std::string git_rev = "unknown", source_digest = "unknown";
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = static_cast<std::uint64_t>(ccpred::parse_int(v));
    else if (k == "--seconds") a.seconds = ccpred::parse_double(v);
    else if (k == "--trace") a.trace = v != "0";
    else if (k == "--serverd") a.serverd = v;
    else if (k == "--workdir") a.workdir = v;
    else if (k == "--spans") a.spans = v;
    else if (k == "--git-rev") a.git_rev = v;
    else if (k == "--source-digest") a.source_digest = v;
    else throw ccpred::Error("unknown flag " + k);
  }
  CCPRED_CHECK_MSG(argc % 2 == 1, "flags come in --key value pairs");
  CCPRED_CHECK_MSG(!a.workload.empty() && !a.serverd.empty() &&
                       !a.workdir.empty() && !a.spans.empty(),
                   "--workload, --serverd, --workdir and --spans are required");
  CCPRED_CHECK_MSG(a.seconds > 0, "--seconds must be positive");
  return a;
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string join(const std::vector<std::string>& v) {
  std::string out;
  for (const auto& s : v) out += (out.empty() ? "" : " ") + s;
  return out;
}

/// A fresh artifact directory for one daemon, since online learning
/// republishes into it. Hard links suffice: a promotion replaces the file
/// by rename and never writes the pristine inode.
std::string fresh_artifacts(const std::string& workdir,
                            const std::string& pristine) {
  static int next = 0;
  const std::string dir = workdir + "/art-" + std::to_string(next++);
  fs::create_directories(dir);
  for (const auto& m : kMachines) {
    fs::create_hard_link(artifact_path(pristine, m), artifact_path(dir, m));
  }
  return dir;
}

std::vector<std::string> daemon_flags(const WorkloadShape& shape,
                                      const std::string& artifacts) {
  std::vector<std::string> flags = {"--artifacts", artifacts};
  if (shape.online) {
    flags.insert(flags.end(), {"--online", "1", "--online-min-refit-rows",
                               std::to_string(shape.min_refit_rows)});
  }
  if (shape.fleet_shards > 0) {
    flags.insert(flags.end(), {"--fleet", std::to_string(shape.fleet_shards)});
  }
  return flags;
}

/// One STQ per machine, per serving process: a fleet answers through each
/// shard so every process has loaded every model it serves.
std::vector<std::string> setup_requests(const WorkloadShape& shape) {
  std::vector<std::string> lines;
  const std::size_t shards = std::max<std::size_t>(1, shape.fleet_shards);
  for (const auto& machine : kMachines) {
    for (std::size_t s = 0; s < shards; ++s) {
      for (const Key& key : paper_keys()) {
        Request r;
        r.op = Op::kStq;
        r.machine = key.machine;
        r.o = key.o;
        r.v = key.v;
        if (key.machine != machine ||
            (shape.fleet_shards > 0 &&
             fleet_shard_of(r, shards) != static_cast<int>(s))) {
          continue;
        }
        lines.push_back(ccpred::serve::format_request(r));
        break;
      }
    }
  }
  return lines;
}

/// CPU time of the calling thread, s.
double thread_cpu_s() {
  rusage u{};
  ::getrusage(RUSAGE_THREAD, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

/// Counts of `at_ns` in each whole second of [begin, end).
std::vector<std::uint64_t> per_second(const std::vector<std::int64_t>& at_ns,
                                      std::int64_t begin, std::int64_t end) {
  constexpr std::int64_t kSecondNs = 1'000'000'000;
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(
      std::max<std::int64_t>(1, (end - begin) / kSecondNs)));
  for (const std::int64_t t : at_ns) {
    if (t < begin) continue;
    const auto s = static_cast<std::size_t>((t - begin) / kSecondNs);
    if (s < counts.size()) ++counts[s];
  }
  return counts;
}

/// The machine's CPU time from /proc/stat, in clock ticks.
struct CpuTicks {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

CpuTicks host_ticks() {
  std::istringstream in(read_first_line("/proc/stat"));
  std::string label;
  in >> label;
  CpuTicks t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

using Record = std::map<std::string, std::string>;

Record stats_of(int port) {
  const auto lines = roundtrip_lines(port, {"{\"op\":\"stats\"}"}, 30.0);
  CCPRED_CHECK_MSG(!lines.empty(), "no stats answer on port " << port);
  return ccpred::serve::parse_record(lines.front());
}

double num(const Record& r, const std::string& key) {
  const auto it = r.find(key);
  return it == r.end() ? 0.0 : ccpred::parse_double(it->second);
}

/// Blocking round trip of one binary frame; returns ns, or -1 on failure.
std::int64_t frame_trip(int fd, const std::string& frame) {
  const std::int64_t t = now_ns();
  if (::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(frame.size())) {
    return -1;
  }
  std::string buf;
  char chunk[65536];
  while (true) {
    ccpred::serve::wire::FrameHeader header;
    std::string error;
    const auto status = ccpred::serve::wire::probe_frame(
        reinterpret_cast<const unsigned char*>(buf.data()), buf.size(), &header,
        &error);
    if (status == ccpred::serve::wire::FrameStatus::kBad) return -1;
    if (status == ccpred::serve::wire::FrameStatus::kHeader &&
        buf.size() >= ccpred::serve::wire::kHeaderBytes + header.payload_bytes) {
      return now_ns() - t;
    }
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) return -1;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

/// Router hop: the same warm frames sent to the fleet router and straight
/// to the owning shard, alternating; the p50 difference in us.
double router_hop_us(int router_port, std::size_t shards) {
  std::vector<double> via_router, direct;
  for (std::size_t s = 0; s < shards; ++s) {
    std::vector<Request> frame;
    for (const Key& key : paper_keys()) {
      Request r;
      r.op = Op::kStq;
      r.machine = key.machine;
      r.o = key.o;
      r.v = key.v;
      r.id = std::to_string(frame.size());
      if (fleet_shard_of(r, shards) == static_cast<int>(s) && frame.size() < 16) {
        frame.push_back(r);
      }
    }
    const std::string bytes = ccpred::serve::wire::encode_request_frame(frame);
    const int a = connect_loopback(router_port);
    const int b = connect_loopback(router_port + 1 + static_cast<int>(s));
    for (int i = 0; i < kHopTrips && a >= 0 && b >= 0; ++i) {
      const std::int64_t r = frame_trip(a, bytes);
      const std::int64_t d = frame_trip(b, bytes);
      if (r < 0 || d < 0) break;
      via_router.push_back(static_cast<double>(r) / 1e3);
      direct.push_back(static_cast<double>(d) / 1e3);
    }
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  return median(via_router) - median(direct);
}

struct Printed {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics. Client-observed latency (p50, p99 and
/// the supported tail) is printed beside them but not gated: on a shared
/// 4-vCPU VM it follows host CPU steal rather than the program. Over five
/// feedback_mix seeds at 2-10% steal the p50 read 0.42-0.62 ms (IQR 29%
/// of the median) while daemon CPU per answer moved 9%.
const std::vector<Printed> kEndToEnd = {
    {"answers_per_s", "1/s"},     {"setup_s", "s"},
    {"peak_rss_mb", "MB"},        {"cpu_ms_per_answer", "ms"},
    {"within_slo_share", "share"},
};

const std::vector<Printed> kPerLayer = {
    {"serve.event_loop.ingress_p50_us", "us"},
    {"serve.event_loop.ingress_p99_us", "us"},
    {"serve.event_loop.egress_p50_us", "us"},
    {"serve.event_loop.egress_p99_us", "us"},
    {"serve.event_loop.requests_in", "count"},
    {"serve.event_loop.protocol_errors", "count"},
    {"serve.event_loop.overflow_closes", "count"},
    {"serve.protocol.parse_ns", "ns"},
    {"serve.protocol.format_ns", "ns"},
    {"serve.wire.encode_frame_us", "us"},
    {"serve.wire.decode_frame_us", "us"},
    {"serve.batch_scheduler.flushes", "count"},
    {"serve.batch_scheduler.batched_requests", "count"},
    {"serve.batch_scheduler.bypass", "count"},
    {"serve.batch_scheduler.size_p50", "count"},
    {"serve.batch_scheduler.size_p95", "count"},
    {"serve.server.service_p50_us.stq", "us"},
    {"serve.server.service_p99_us.stq", "us"},
    {"serve.server.service_p50_us.bq", "us"},
    {"serve.server.service_p99_us.bq", "us"},
    {"serve.server.service_p50_us.budget", "us"},
    {"serve.server.service_p99_us.budget", "us"},
    {"serve.server.service_p50_us.frame", "us"},
    {"serve.server.service_p99_us.frame", "us"},
    {"serve.server.shed", "count"},
    {"serve.server.deadline_exceeded", "count"},
    {"serve.sweep_cache.hits", "count"},
    {"serve.sweep_cache.misses", "count"},
    {"serve.sweep_cache.coalesced", "count"},
    {"serve.sweep_cache.evictions", "count"},
    {"serve.sweep_cache.hit_rate", "share"},
    {"serve.model_registry.load_ms", "ms"},
    {"serve.model_registry.get_us", "us"},
    {"serve.model_registry.models_loaded", "count"},
    {"guidance.sweep_ms", "ms"},
    {"core.predict_batch_us", "us"},
    {"sim.estimate_job_ms", "ms"},
    {"serve.fleet.router_hop_p50_us", "us"},
    {"serve.fleet.shard_balance", "ratio"},
    {"serve.server.service_p50_us.report", "us"},
    {"serve.server.service_p99_us.report", "us"},
    {"serve.online.incremental_updates", "count"},
    {"serve.online.refits", "count"},
    {"serve.online.promotions", "count"},
    {"serve.online.promotions_rejected", "count"},
    {"serve.online.cache_invalidated", "count"},
    {"reports_per_s", "1/s"},
    {"report_latency_p99_ms", "ms"},
    {"process.ctx_switches_per_answer", "count"},
    {"trace_overhead_share", "share"},
    {"loadgen.lag_p99_ms", "ms"},
};

/// Simulator jobs, which only the ungated cold_open_loop sends. Every
/// traced run prints them, but they stay out of the result JSON.
const std::vector<Printed> kUngatedLayer = {
    {"serve.server.service_p50_us.job", "us"},
    {"serve.server.service_p99_us.job", "us"},
};

int run(const Args& args) {
  const Workload w = parse_workload(args.workload);
  const WorkloadShape shape = shape_of(w);
  const std::string loadavg = read_first_line("/proc/loadavg");
  std::vector<std::pair<const char*, std::int64_t>> phases = {
      {"start", now_ns()}};
  const auto phase = [&](const char* name) {
    phases.emplace_back(name, now_ns());
  };
  fs::create_directories(args.workdir);

  // Artifacts: trained once per invocation, both machines in parallel.
  const std::string pristine = args.workdir + "/pristine";
  fs::create_directories(pristine);
  std::vector<int> train_rc(kMachines.size(), 1);
  {
    std::vector<std::thread> trainers;
    for (std::size_t i = 0; i < kMachines.size(); ++i) {
      trainers.emplace_back([&, i] {
        train_rc[i] = run_command(
            {args.serverd, "train", "--artifacts", pristine, "--machine",
             kMachines[i], "--model", "gb", "--seed", kTrainSeed},
            args.workdir + "/train.log", 120.0);
      });
    }
    for (auto& t : trainers) t.join();
  }
  for (std::size_t i = 0; i < kMachines.size(); ++i) {
    CCPRED_CHECK_MSG(train_rc[i] == 0, "training " << kMachines[i]
                                                   << " failed; see "
                                                   << args.workdir
                                                   << "/train.log");
  }
  const BudgetTable budgets =
      budget_table(ArtifactWatcher(pristine, kMachines, false).stop());
  phase("train");

  const std::string flags_text =
      join(daemon_flags(shape, "<artifacts>"));
  std::printf("perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d\n",
              workload_name(w), args.seed, args.seconds, args.trace ? 1 : 0);
  std::printf(
      "provenance {\"git_rev\":\"%s\",\"source_digest\":\"%s\","
      "\"build_type\":\"%s\",\"cpu\":%s,\"nproc\":%ld,\"loadavg_1m\":%s,"
      "\"seed\":%" PRIu64 ",\"workload\":\"%s\",\"daemon_flags\":\"%s\"}\n",
      json_escape(args.git_rev).c_str(), json_escape(args.source_digest).c_str(),
      PERFBENCH_BUILD_TYPE, ccpred::bench::provenance_json().c_str(),
      ::sysconf(_SC_NPROCESSORS_ONLN),
      loadavg.substr(0, loadavg.find(' ')).c_str(), args.seed,
      workload_name(w), json_escape(flags_text).c_str());

  // Set-up: spawn to every (machine, model) answered, kSetupReps times.
  const std::string log = args.workdir + "/serverd.log";
  const auto setup_lines = setup_requests(shape);
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  std::string artifacts;
  std::vector<std::string> problems;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (daemon && !daemon->stop(kStopTimeoutS)) {
      problems.push_back("daemon hung or failed at shutdown (set-up rep)");
    }
    artifacts = fresh_artifacts(args.workdir, pristine);
    daemon = std::make_unique<Daemon>(
        args.serverd, daemon_flags(shape, artifacts),
        static_cast<int>(shape.fleet_shards), log);
    const auto replies = roundtrip_lines(daemon->port(), setup_lines, 60.0);
    const std::int64_t ready = now_ns();
    CCPRED_CHECK_MSG(
        !replies.empty() &&
            std::all_of(replies.begin(), replies.end(),
                        [](const std::string& l) {
                          return l.starts_with("{\"ok\":true");
                        }),
        "set-up requests failed; see " << log);
    setups.push_back(static_cast<double>(ready - daemon->spawned_ns()) / 1e9);
  }
  const int port = daemon->port();
  phase("setup");

  ArtifactWatcher watcher(artifacts, kMachines, shape.online);
  if (shape.prewarm) {
    CCPRED_CHECK_MSG(warm_paper_sweeps(port), "warming paper sweeps failed");
  }
  const Record before = stats_of(port);
  const ProcSample proc_before = daemon->sample();
  RunWindow window;
  window.seconds = args.seconds;
  window.warmup_s = shape.warmup_s;
  const CpuTicks host_before = host_ticks();
  const double client_before = thread_cpu_s();
  const std::int64_t drive_start = now_ns();
  RunResult res = drive(port, w, args.seed, budgets, window);
  const double client_cpu_s = thread_cpu_s() - client_before;
  const double drive_s = static_cast<double>(now_ns() - drive_start) / 1e9;
  const CpuTicks host_after = host_ticks();
  const ProcSample proc_after = daemon->sample();
  const Record after = stats_of(port);
  phase("measure");

  Metrics layer;
  if (args.trace && shape.fleet_shards > 0) {
    std::vector<double> per_shard;
    for (std::size_t s = 0; s < shape.fleet_shards; ++s) {
      per_shard.push_back(
          num(stats_of(port + 1 + static_cast<int>(s)), "requests"));
    }
    const auto [lo, hi] = std::minmax_element(per_shard.begin(), per_shard.end());
    layer["serve.fleet.shard_balance"] = *lo > 0 ? *hi / *lo : 0.0;
    layer["serve.fleet.router_hop_p50_us"] =
        router_hop_us(port, shape.fleet_shards);
  }
  if (!daemon->stop(kStopTimeoutS)) {
    problems.push_back("daemon hung or failed at shutdown; see " + log);
  }
  phase("shutdown");

  // Oracle and accounting.
  const Snapshots snapshots = watcher.stop();
  const Verdict verdict =
      check_answers(res.answers, snapshots, shape.binary, 4);
  phase("oracle");
  std::uint64_t failed = failed_records(res, verdict);
  const double delta_rejected =
      num(after, "online_rejected") - num(before, "online_rejected");
  const double delta_measurements =
      num(after, "online_measurements") - num(before, "online_measurements");
  if (shape.report_connections > 0 &&
      (static_cast<double>(res.report_walls_counted) + delta_rejected !=
           static_cast<double>(res.report_walls_sent) ||
       delta_measurements != static_cast<double>(res.report_walls_sent))) {
    ++failed;
    problems.push_back("report accounting: sent " +
                       std::to_string(res.report_walls_sent) +
                       " walls, accepted+duplicates " +
                       std::to_string(res.report_walls_counted) +
                       ", rejected " + std::to_string(delta_rejected) +
                       ", measured " + std::to_string(delta_measurements));
  }
  if (verdict.questions == 0) problems.push_back("no answers to check");
  const bool correct = failed == 0 && problems.empty();
  const std::uint64_t attempted = res.attempted;

  Metrics e2e;
  e2e["answers_per_s"] = static_cast<double>(res.timed_ok) / args.seconds;
  // Pooled over every measured message, answered in the window or after.
  const LatencySummary lat = summarize(res.latency_ms);  // sorts in place
  e2e["latency_p50_ms"] = lat.p50;
  e2e["latency_p99_ms"] = lat.p99;
  const LatencySummary rep_lat = summarize(res.report_latency_ms);
  const LatencySummary lag = summarize(res.lag_ms);
  const double answers = static_cast<double>(std::max<std::uint64_t>(
      1, res.answered_ok));
  e2e["setup_s"] = median(setups);
  e2e["peak_rss_mb"] = proc_after.peak_rss_mb;
  e2e["cpu_ms_per_answer"] =
      (proc_after.cpu_s - proc_before.cpu_s) * 1e3 / answers;
  e2e["within_slo_share"] =
      res.timed_sent == 0 ? 0.0
                          : static_cast<double>(res.within_slo) /
                                static_cast<double>(res.timed_sent);

  for (const auto& p : kEndToEnd) {
    std::printf("e2e %-34s %14.6g %s\n", p.name, e2e[p.name], p.unit);
  }
  std::printf("e2e %-34s %14.6g share (failed %" PRIu64 " of %" PRIu64
              " attempted: %" PRIu64 " not ok, %" PRIu64 " missing, %" PRIu64
              " misordered, %" PRIu64 " wrong, %" PRIu64 " connection errors)\n",
              "failed_share",
              static_cast<double>(failed) /
                  static_cast<double>(std::max<std::uint64_t>(1, res.attempted)),
              failed, res.attempted, res.not_ok, res.missing,
              res.misordered, verdict.wrong_records, res.conn_errors);
  std::printf("e2e %-34s %14.6g ms (not gated)\n", "latency_p50_ms",
              e2e["latency_p50_ms"]);
  std::printf("e2e %-34s %14.6g ms (not gated)\n", "latency_p99_ms",
              e2e["latency_p99_ms"]);
  std::printf("e2e %-34s %14.6g ms (p%g, %zu samples)\n", "latency_tail_ms",
              lat.tail, lat.tail_percentile, lat.count);
  if (shape.report_connections > 0) {
    std::printf("e2e %-34s %14.6g 1/s\n", "reports_per_s",
                static_cast<double>(res.timed_reports) / args.seconds);
    std::printf("e2e %-34s %14.6g ms (%zu samples)\n", "report_latency_p99_ms",
                rep_lat.p99, rep_lat.count);
  }
  std::printf("client cpu %.4f ms per answer (one thread, %.1f%% of the run)\n",
              client_cpu_s * 1e3 / answers, 100.0 * client_cpu_s / drive_s);
  std::printf("host cpu steal %.1f%% while driving\n",
              100.0 * static_cast<double>(host_after.steal - host_before.steal) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, host_after.total - host_before.total)));
  std::printf("answers per second of the window:");
  for (const std::uint64_t n : per_second(res.answer_ns, res.timed_begin_ns,
                                          res.timed_end_ns)) {
    std::printf(" %" PRIu64, n);
  }
  std::printf("\n");
  std::printf("phases:");
  for (std::size_t i = 1; i < phases.size(); ++i) {
    std::printf(" %s %.2f s", phases[i].first,
                static_cast<double>(phases[i].second - phases[i - 1].second) /
                    1e9);
  }
  std::printf("\n");
  std::printf("check oracle: %" PRIu64 " distinct questions recomputed, %" PRIu64
              " wrong records; setup reps:",
              verdict.questions, verdict.wrong_records);
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");
  for (const auto& n : verdict.notes) std::printf("check mismatch: %s\n", n.c_str());
  for (const auto& n : res.failures) std::printf("check failure: %s\n", n.c_str());
  for (const auto& n : problems) std::printf("check problem: %s\n", n.c_str());

  const Metrics* out = &e2e;
  const std::vector<Printed>* names = &kEndToEnd;
  if (args.trace) {
    const auto delta = [&](const char* key) {
      return num(after, key) - num(before, key);
    };
    layer["serve.batch_scheduler.flushes"] = delta("batch_flushes");
    layer["serve.batch_scheduler.batched_requests"] = delta("batched_requests");
    layer["serve.batch_scheduler.bypass"] = delta("batch_bypass");
    layer["serve.batch_scheduler.size_p50"] = num(after, "batch_size_p50");
    layer["serve.batch_scheduler.size_p95"] = num(after, "batch_size_p95");
    layer["serve.server.shed"] = delta("shed");
    layer["serve.server.deadline_exceeded"] = delta("deadline_exceeded");
    const double hits = delta("cache_hits"), misses = delta("cache_misses");
    layer["serve.sweep_cache.hits"] = hits;
    layer["serve.sweep_cache.misses"] = misses;
    layer["serve.sweep_cache.coalesced"] = delta("coalesced");
    layer["serve.sweep_cache.evictions"] = delta("cache_evictions");
    layer["serve.sweep_cache.hit_rate"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    layer["serve.model_registry.models_loaded"] = num(after, "models_loaded");
    for (const char* k : {"incremental_updates", "refits", "promotions",
                          "promotions_rejected", "cache_invalidated"}) {
      layer[std::string("serve.online.") + k] =
          num(after, std::string("online_") + k);
    }
    unsigned long long conns = 0, requests = 0, frames = 0, lines = 0,
                       perrors = 0, overflow = 0;
    std::sscanf(last_log_line(log, "event loop:").c_str(),
                "event loop: %llu connections, %llu requests (%llu frames, "
                "%llu lines), %llu protocol errors, %llu overflow closes",
                &conns, &requests, &frames, &lines, &perrors, &overflow);
    layer["serve.event_loop.requests_in"] = static_cast<double>(requests);
    layer["serve.event_loop.protocol_errors"] = static_cast<double>(perrors);
    layer["serve.event_loop.overflow_closes"] = static_cast<double>(overflow);
    layer["process.ctx_switches_per_answer"] =
        static_cast<double>(proc_after.ctx_switches - proc_before.ctx_switches) /
        answers;
    layer["loadgen.lag_p99_ms"] = lag.p99;
    layer["reports_per_s"] =
        static_cast<double>(res.timed_reports) / args.seconds;
    layer["report_latency_p99_ms"] = rep_lat.p99;

    res = RunResult{};  // free the e2e samples before the traced phase
    run_traced(w, args.seed, args.seconds / 2, budgets,
               fresh_artifacts(args.workdir, pristine), args.spans, layer);
    micro_timings(sample_requests(w, args.seed, budgets, 1024), pristine,
                  layer);
    for (const auto* list : {&kPerLayer, &kUngatedLayer}) {
      for (const auto& p : *list) {
        std::printf("layer %-42s %14.6g %s\n", p.name, layer[p.name], p.unit);
      }
    }
    std::printf("trace spans: %.0f request spans written to %s\n",
                layer["traced.spans"], args.spans.c_str());
    out = &layer;
    names = &kPerLayer;
  }

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " +
          std::to_string(std::max<std::uint64_t>(1, attempted));
  json += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < names->size(); ++i) {
    const auto& p = (*names)[i];
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", p.name, out->at(p.name), p.unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "perfbench: refusing a build with assertions on; "
                       "build with CMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing a %s build; use Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
