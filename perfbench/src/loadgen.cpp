#include "loadgen.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <string_view>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "ccpred/common/strings.hpp"
#include "ccpred/serve/wire.hpp"
#include "summary.hpp"

namespace perfbench {

using ccpred::serve::Op;
using ccpred::serve::Request;
using ccpred::serve::Response;

namespace {

constexpr std::size_t kMaxNotes = 8;
constexpr std::int64_t kPollSliceNs = 100'000'000;

struct Pending {
  Message msg;
  std::int64_t start_ns = 0;  ///< due (open loop) or send (closed loop)
  bool timed = false;
};

bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Waits up to `timeout_ns` for `fd` to become readable.
void wait_readable(int fd, std::int64_t timeout_ns) {
  timeout_ns = std::clamp<std::int64_t>(timeout_ns, 0, kPollSliceNs);
  pollfd p{fd, POLLIN, 0};
  const timespec ts{static_cast<time_t>(timeout_ns / 1'000'000'000),
                    static_cast<long>(timeout_ns % 1'000'000'000)};
  ::ppoll(&p, 1, &ts, nullptr);
}

/// The value of `"key":` in a flat JSON line, up to the next ',' or '}'.
std::string_view field(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + pattern.size();
  const std::size_t end = line.find_first_of(",}", begin);
  return line.substr(begin, end == std::string_view::npos ? end : end - begin);
}

/// One client connection: sends messages, matches answers in order and
/// tallies them into `out`.
class Connection {
 public:
  Connection(int fd, const WorkloadShape& shape, const RunWindow& window,
             std::int64_t t0, const RunHooks& hooks, RunResult& out)
      : fd_(fd),
        start_(t0),
        binary_(shape.binary),
        slo_ms_(shape.slo_ms),
        hooks_(hooks),
        out_(out),
        timed_begin_(t0 + static_cast<std::int64_t>(window.warmup_s * 1e9)),
        timed_end_(timed_begin_ +
                   static_cast<std::int64_t>(window.seconds * 1e9)),
        drain_end_(timed_end_ + static_cast<std::int64_t>(window.drain_s * 1e9)) {}

  ~Connection() {
    for (const Pending& p : inflight_) {
      out_.missing += p.msg.records.size();
    }
    if (!inflight_.empty()) {
      out_.note("missing: " + std::to_string(inflight_.size()) +
                " messages unanswered, first id " +
                std::to_string(inflight_.front().msg.id));
    }
    if (fd_ >= 0) ::close(fd_);
  }

  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  int fd() const { return fd_; }
  std::int64_t start() const { return start_; }
  std::int64_t timed_end() const { return timed_end_; }
  std::int64_t drain_end() const { return drain_end_; }
  bool dead() const { return dead_; }
  std::size_t inflight() const { return inflight_.size(); }

  /// Queues `m` for the next flush(); `start_ns` 0 means "stamp at send".
  void queue(Message m, std::int64_t start_ns) {
    if (hooks_.before_send) hooks_.before_send(m.id);
    out_.attempted += m.records.size();
    for (const Request& r : m.records) {
      if (r.op == Op::kReport) out_.report_walls_sent += r.wall_times.size();
    }
    wbuf_ += encode_message(m, binary_);
    inflight_.push_back({std::move(m), start_ns, false});
    ++unsent_;
  }

  /// Writes every queued message; stamps closed-loop send times and
  /// open-loop lag.
  void flush() {
    if (unsent_ == 0) return;
    const std::int64_t now = now_ns();
    for (std::size_t i = inflight_.size() - unsent_; i < inflight_.size(); ++i) {
      Pending& p = inflight_[i];
      if (p.start_ns == 0) {
        p.start_ns = now;
        if (p.msg.due_ns > 0 && now >= timed_begin_) {
          out_.lag_ms.push_back(
              static_cast<double>(now - start_ - p.msg.due_ns) / 1e6);
        }
      } else if (p.start_ns >= timed_begin_) {
        out_.lag_ms.push_back(static_cast<double>(now - p.start_ns) / 1e6);
      }
      p.timed = p.start_ns >= timed_begin_ && p.start_ns < timed_end_;
      if (hooks_.tracer != nullptr) hooks_.tracer->on_send(p.msg.id, now);
    }
    unsent_ = 0;
    if (!send_all(fd_, wbuf_)) lose("send failed");
    wbuf_.clear();
  }

  /// Reads whatever has arrived and processes every complete answer.
  void pump() {
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n > 0) {
        rbuf_.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      lose(n == 0 ? "connection closed by server" : "recv failed");
      break;
    }
    parse();
  }

 private:
  void lose(const char* why) {
    if (dead_) return;
    dead_ = true;
    ++out_.conn_errors;
    out_.note(std::string("connection lost: ") + why);
  }

  void parse() {
    std::size_t pos = 0;
    while (!inflight_.empty()) {
      if (binary_) {
        ccpred::serve::wire::FrameHeader header;
        std::string error;
        const auto* data =
            reinterpret_cast<const unsigned char*>(rbuf_.data()) + pos;
        const std::size_t avail = rbuf_.size() - pos;
        const auto status =
            ccpred::serve::wire::probe_frame(data, avail, &header, &error);
        if (status == ccpred::serve::wire::FrameStatus::kBad) {
          lose("malformed response frame");
          break;
        }
        if (status != ccpred::serve::wire::FrameStatus::kHeader ||
            avail < ccpred::serve::wire::kHeaderBytes + header.payload_bytes) {
          break;
        }
        std::vector<Response> replies;
        try {
          replies = ccpred::serve::wire::decode_response_frame(
              header, data + ccpred::serve::wire::kHeaderBytes);
        } catch (const std::exception& e) {
          lose("undecodable response frame");
          break;
        }
        pos += ccpred::serve::wire::kHeaderBytes + header.payload_bytes;
        complete_frame(replies);
      } else {
        const std::size_t eol = rbuf_.find('\n', pos);
        if (eol == std::string::npos) break;
        complete_line(std::string_view(rbuf_).substr(pos, eol - pos));
        pos = eol + 1;
      }
    }
    rbuf_.erase(0, pos);
  }

  void complete_line(std::string_view line) {
    const std::int64_t now = now_ns();
    Pending p = std::move(inflight_.front());
    inflight_.pop_front();
    const Request& r = p.msg.records.front();
    bool ok = false;
    std::string_view id = field(line, "id");
    if (id.size() >= 2) id = id.substr(1, id.size() - 2);
    if (id != r.id) {
      ++out_.misordered;
      out_.note("response id " + std::string(id) + " for request " + r.id);
    } else if (!line.starts_with("{\"ok\":true")) {
      ++out_.not_ok;
      out_.note(std::string(line));
    } else if (r.op == Op::kReport) {
      out_.report_walls_counted += static_cast<std::uint64_t>(
          ccpred::parse_int(field(line, "accepted")) +
          ccpred::parse_int(field(line, "duplicates")));
      ok = true;
    } else {
      const std::string_view version = field(line, "model_version");
      file_answer(r, answer_text(std::string(line)),
                  version.empty() ? 0 : ccpred::parse_int(version));
      ok = true;
    }
    finish(p, now, ok ? 1 : 0);
  }

  void complete_frame(const std::vector<Response>& replies) {
    const std::int64_t now = now_ns();
    Pending p = std::move(inflight_.front());
    inflight_.pop_front();
    const auto& records = p.msg.records;
    if (replies.size() != records.size()) {
      out_.not_ok += records.size();
      out_.note("frame answered " + std::to_string(replies.size()) +
                " records for " + std::to_string(records.size()));
      finish(p, now, 0);
      return;
    }
    std::size_t ok = 0;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const Request& r = records[i];
      const Response& resp = replies[i];
      if (resp.id != r.id) {
        ++out_.misordered;
        out_.note("response id " + resp.id + " for request " + r.id);
      } else if (!resp.ok) {
        ++out_.not_ok;
        out_.note(ccpred::serve::format_response(resp));
      } else if (r.op == Op::kReport) {
        out_.report_walls_counted += resp.accepted + resp.duplicates;
        ++ok;
      } else {
        file_answer(r, answer_text(resp, true), resp.model_version);
        ++ok;
      }
    }
    finish(p, now, ok);
  }

  /// Files an answer under its question for the oracle.
  void file_answer(const Request& r, std::string answer,
                   std::uint64_t version) {
    auto [it, inserted] = out_.answers.try_emplace(question_key(r, version));
    Canon& canon = it->second;
    if (inserted) {
      canon.request = r;
      canon.request.id.clear();
    }
    ++canon.answers[std::move(answer)];
  }

  void finish(const Pending& p, std::int64_t now, std::size_t ok_records) {
    if (hooks_.tracer != nullptr) hooks_.tracer->on_recv(p.msg.id, now);
    out_.answered_ok += ok_records;
    const bool report = p.msg.records.front().op == Op::kReport;
    if (!report) {
      for (std::size_t i = 0; i < ok_records; ++i) out_.answer_ns.push_back(now);
    }
    if (!p.timed) return;
    const double ms = static_cast<double>(now - p.start_ns) / 1e6;
    const bool in_window = now <= timed_end_;
    if (report) {
      out_.report_latency_ms.push_back(ms);
      if (in_window) out_.timed_reports += ok_records;
      return;
    }
    out_.latency_ms.push_back(ms);
    out_.timed_sent += p.msg.records.size();
    if (in_window) out_.timed_ok += ok_records;
    if (ms <= slo_ms_) out_.within_slo += ok_records;
  }

  int fd_;
  std::int64_t start_;
  bool binary_;
  double slo_ms_;
  const RunHooks& hooks_;
  RunResult& out_;
  std::int64_t timed_begin_, timed_end_, drain_end_;
  std::deque<Pending> inflight_;
  std::size_t unsent_ = 0;
  std::string wbuf_;
  std::string rbuf_;
  bool dead_ = false;
};

/// Start instant of a run, 20 ms out so that every connection is open by
/// then.
std::int64_t start_instant(const RunHooks& hooks) {
  const std::int64_t t0 = now_ns() + 20'000'000;
  if (hooks.on_start) hooks.on_start(t0);
  return t0;
}

/// What a connection's sending policy returns: the instant it next wants
/// to send, kNever to wait for an answer, or kDone once it sends no more.
constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kDone = -1;

/// Drives every connection from this one thread. `feed(c, conn, now)`
/// queues what connection c sends at `now` and says when it next wants to
/// send; answers are read on whichever connections have them. A connection
/// is finished once it sends no more and has its answers (or its drain
/// time has passed).
template <typename Feed>
RunResult run_connections(int port, const WorkloadShape& shape,
                          const RunWindow& window, const RunHooks& hooks,
                          Feed feed) {
  RunResult out;
  const std::int64_t t0 = start_instant(hooks);
  out.timed_begin_ns = t0 + static_cast<std::int64_t>(window.warmup_s * 1e9);
  out.timed_end_ns =
      out.timed_begin_ns + static_cast<std::int64_t>(window.seconds * 1e9);
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < shape.connections; ++c) {
    const int fd = connect_loopback(port);
    if (fd < 0) {
      ++out.conn_errors;
      out.note("cannot connect to port " + std::to_string(port));
      conns.push_back(nullptr);
      continue;
    }
    conns.push_back(
        std::make_unique<Connection>(fd, shape, window, t0, hooks, out));
  }
  std::vector<bool> sending(conns.size(), true);
  std::vector<pollfd> fds;
  std::vector<Connection*> polled;
  while (true) {
    const std::int64_t now = now_ns();
    std::int64_t wake = now + kPollSliceNs;
    fds.clear();
    polled.clear();
    for (std::size_t c = 0; c < conns.size(); ++c) {
      Connection* conn = conns[c].get();
      if (conn == nullptr || conn->dead()) continue;
      if (now < t0) {
        wake = std::min(wake, t0);
      } else if (sending[c]) {
        const std::int64_t next = feed(c, *conn, now);
        conn->flush();
        if (next == kDone) sending[c] = false;
        wake = std::min(wake, next == kDone ? kNever : next);
      }
      if (conn->dead() || (!sending[c] && (conn->inflight() == 0 ||
                                            now >= conn->drain_end()))) {
        continue;
      }
      fds.push_back({conn->fd(), POLLIN, 0});
      polled.push_back(conn);
    }
    if (fds.empty()) break;
    const std::int64_t timeout_ns =
        std::clamp<std::int64_t>(wake - now_ns(), 0, kPollSliceNs);
    const timespec ts{0, static_cast<long>(timeout_ns)};
    ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents != 0) polled[i]->pump();
    }
  }
  conns.clear();  // counts what is still in flight as missing
  return out;
}

}  // namespace

QuestionKey question_key(const Request& r, std::uint64_t model_version) {
  QuestionKey k;
  k.op = static_cast<int>(r.op);
  k.machine = r.machine;
  k.o = r.o;
  k.v = r.v;
  k.nodes = r.nodes;
  k.tile = r.tile;
  k.budget = r.max_node_hours;
  k.model_version = model_version;
  return k;
}

std::string answer_text(const std::string& line) {
  std::size_t begin = line.find("\"id\":\"");
  begin = begin == std::string::npos ? 0 : line.find('"', begin + 6) + 1;
  std::string out = line.substr(begin);
  const std::size_t flag = out.find(",\"cache_hit\":");
  if (flag != std::string::npos) {
    const std::size_t end = out.find_first_of(",}", flag + 1);
    out.erase(flag, end - flag);
  }
  return out;
}

std::string answer_text(const Response& r, bool binary) {
  if (!binary) {
    Response copy = r;
    copy.id = "0";  // answer_text starts after the id field
    return answer_text(ccpred::serve::format_response(copy));
  }
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "ok=%d stale=%d nodes=%d tile=%d time=%a nh=%a v=%" PRIu64
                " sweep=%zu it=%d setup=%a iter=%a total=%a",
                r.ok, r.stale, r.nodes, r.tile, r.time_s, r.node_hours,
                r.model_version, r.sweep_size, r.iterations, r.setup_s,
                r.iteration_s, r.total_s);
  return buf;
}

void RunResult::note(std::string what) {
  if (failures.size() < kMaxNotes) failures.push_back(std::move(what));
}

int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

std::vector<std::string> roundtrip_lines(int port,
                                         const std::vector<std::string>& lines,
                                         double timeout_s) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  std::vector<std::string> replies;
  if (send_all(fd, out)) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    std::string buf;
    char chunk[65536];
    while (replies.size() < lines.size() && now_ns() < deadline) {
      wait_readable(fd, deadline - now_ns());
      const ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EINTR)) break;
      if (n > 0) buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t eol;
      while ((eol = buf.find('\n')) != std::string::npos) {
        replies.push_back(buf.substr(0, eol));
        buf.erase(0, eol + 1);
      }
    }
  }
  ::close(fd);
  if (replies.size() != lines.size()) replies.clear();
  return replies;
}

RunResult run_generated(int port, const WorkloadShape& shape,
                        std::vector<Generator>& gens, const RunWindow& window,
                        const RunHooks& hooks) {
  std::vector<Message> ahead(shape.connections);
  return run_connections(port, shape, window, hooks, [&](std::size_t c,
                                                         Connection& conn,
                                                         std::int64_t now) {
    if (now >= conn.timed_end()) return kDone;
    const std::size_t window_c =
        c + shape.report_connections < shape.connections ? shape.window : 1;
    // What is due goes out while fewer than window_c messages wait for
    // answers; one that is late goes out on the next answer.
    if (ahead[c].records.empty()) ahead[c] = gens[c].next();
    while (conn.inflight() < window_c &&
           conn.start() + ahead[c].due_ns <= now) {
      conn.queue(std::move(ahead[c]), 0);
      ahead[c] = gens[c].next();
    }
    return conn.inflight() < window_c ? conn.start() + ahead[c].due_ns
                                      : kNever;
  });
}

RunResult drive(int port, Workload w, std::uint64_t seed,
                const BudgetTable& budgets, const RunWindow& window,
                const RunHooks& hooks) {
  const WorkloadShape shape = shape_of(w);
  if (w == Workload::kColdOpenLoop) {
    return run_open_loop(
        port, shape, open_loop_schedule(seed, window.warmup_s + window.seconds),
        window, hooks);
  }
  std::vector<Generator> gens;
  for (std::size_t c = 0; c < shape.connections; ++c) {
    gens.emplace_back(w, seed, c, budgets);
    // A report's walls come from the simulator, which takes seconds on
    // some configurations; computing them before the run keeps that out
    // of the one client thread's measured time.
    if (c + shape.report_connections >= shape.connections) {
      gens.back().prefetch(static_cast<std::size_t>(
          std::ceil((window.warmup_s + window.seconds) * shape.report_rate)));
    }
  }
  return run_generated(port, shape, gens, window, hooks);
}

bool warm_paper_sweeps(int port) {
  std::vector<std::string> lines;
  for (const Key& key : paper_keys()) {
    Request r;
    r.op = Op::kStq;
    r.machine = key.machine;
    r.o = key.o;
    r.v = key.v;
    lines.push_back(ccpred::serve::format_request(r));
  }
  const auto replies = roundtrip_lines(port, lines, 60.0);
  return !replies.empty() &&
         std::all_of(replies.begin(), replies.end(), [](const std::string& l) {
           return l.starts_with("{\"ok\":true");
         });
}

RunResult run_open_loop(int port, const WorkloadShape& shape,
                        const std::vector<Message>& schedule,
                        const RunWindow& window, const RunHooks& hooks) {
  std::vector<std::size_t> next(shape.connections);
  for (std::size_t c = 0; c < next.size(); ++c) next[c] = c;
  return run_connections(port, shape, window, hooks, [&](std::size_t c,
                                                         Connection& conn,
                                                         std::int64_t now) {
    std::size_t& i = next[c];
    while (i < schedule.size() && conn.start() + schedule[i].due_ns <= now) {
      conn.queue(schedule[i], conn.start() + schedule[i].due_ns);
      i += shape.connections;
    }
    return i < schedule.size() ? conn.start() + schedule[i].due_ns : kDone;
  });
}

}  // namespace perfbench
