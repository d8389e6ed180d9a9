#include "daemon.hpp"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "ccpred/common/error.hpp"
#include "loadgen.hpp"
#include "summary.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

constexpr int kSpawnAttempts = 5;
constexpr double kReadyTimeoutS = 60.0;

/// fork + exec with stdin from `stdin_fd` (or /dev/null when < 0), stdout
/// to /dev/null and stderr appended to `log`.
pid_t spawn_process(const std::vector<std::string>& argv, int stdin_fd,
                    const std::string& log) {
  std::vector<char*> args;
  for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const int null_fd = ::open("/dev/null", O_RDWR | O_CLOEXEC);
  const int log_fd =
      ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  CCPRED_CHECK_MSG(null_fd >= 0 && log_fd >= 0, "cannot open " << log);
  const pid_t pid = ::fork();
  CCPRED_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::dup2(stdin_fd >= 0 ? stdin_fd : null_fd, 0);
    ::dup2(null_fd, 1);
    ::dup2(log_fd, 2);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(null_fd);
  ::close(log_fd);
  return pid;
}

/// waitpid with a deadline; returns the status or -1 on timeout.
int wait_for(pid_t pid, double timeout_s) {
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
  while (true) {
    int status = 0;
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return status;
    if (r < 0 && errno != EINTR) return 0;
    if (now_ns() >= deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

bool port_free(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const int yes = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof yes);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0;
  ::close(fd);
  return ok;
}

/// A kernel-assigned ephemeral port.
int ephemeral_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  CCPRED_CHECK_MSG(fd >= 0, "cannot create probe socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  socklen_t len = sizeof addr;
  const bool ok =
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0;
  ::close(fd);
  CCPRED_CHECK_MSG(ok, "cannot find an ephemeral port");
  return ntohs(addr.sin_port);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Value of a "Key:   N kB"-style line of a /proc status file.
std::uint64_t status_field(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\n" + key + ":");
  if (at == std::string::npos) return 0;
  return std::strtoull(text.c_str() + at + key.size() + 2, nullptr, 10);
}

}  // namespace

int run_command(const std::vector<std::string>& argv, const std::string& log,
                double timeout_s) {
  const pid_t pid = spawn_process(argv, -1, log);
  const int status = wait_for(pid, timeout_s);
  if (status == -1) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128;
}

namespace {

/// A base port P such that P..P+extra are all free on loopback.
int free_port_block(int extra) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int base = ephemeral_port();
    if (base + extra > 65535) continue;
    bool all = true;
    for (int p = base; p <= base + extra && all; ++p) all = port_free(p);
    if (all) return base;
  }
  throw ccpred::Error("no block of free loopback ports");
}

}  // namespace

Daemon::Daemon(const std::string& serverd,
               const std::vector<std::string>& flags, int shards,
               const std::string& log)
    : log_(log) {
  for (int attempt = 0; attempt < kSpawnAttempts; ++attempt) {
    if (spawn(serverd, flags, shards)) return;
  }
  throw ccpred::Error("daemon did not come up; see " + log);
}

bool Daemon::spawn(const std::string& serverd,
                   const std::vector<std::string>& flags, int shards) {
  port_ = free_port_block(shards);
  std::vector<std::string> argv = {serverd, "serve", "--port",
                                   std::to_string(port_)};
  argv.insert(argv.end(), flags.begin(), flags.end());
  int pipe_fds[2];
  CCPRED_CHECK_MSG(::pipe2(pipe_fds, O_CLOEXEC) == 0, "pipe failed");
  spawned_ns_ = now_ns();
  pid_ = spawn_process(argv, pipe_fds[0], log_);
  ::close(pipe_fds[0]);
  stdin_fd_ = pipe_fds[1];
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(kReadyTimeoutS * 1e9);
  while (now_ns() < deadline) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      // Exited before listening (typically a lost port race): retry.
      ::close(stdin_fd_);
      stdin_fd_ = -1;
      pid_ = -1;
      return false;
    }
    const int fd = connect_loopback(port_);
    if (fd >= 0) {
      ::close(fd);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  stop(1.0);
  return false;
}

Daemon::~Daemon() {
  if (pid_ > 0) stop(5.0);
}

bool Daemon::stop(double timeout_s) {
  if (pid_ <= 0) return true;
  const std::vector<pid_t> children = processes();
  if (stdin_fd_ >= 0) ::close(stdin_fd_);
  stdin_fd_ = -1;
  int status = wait_for(pid_, timeout_s);
  const bool hung = status == -1;
  if (hung) {
    for (const pid_t p : children) ::kill(p, SIGKILL);
    ::waitpid(pid_, &status, 0);
  }
  pid_ = -1;
  return !hung && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

std::vector<pid_t> Daemon::processes() const {
  std::vector<pid_t> out;
  if (pid_ <= 0) return out;
  out.push_back(pid_);
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator("/proc", ec)) {
    const std::string name = entry.path().filename();
    if (name.empty() || name.find_first_not_of("0123456789") !=
                            std::string::npos) {
      continue;
    }
    const std::string stat = read_file(entry.path().string() + "/stat");
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos) continue;
    std::istringstream rest(stat.substr(paren + 2));
    char state = 0;
    pid_t ppid = 0;
    rest >> state >> ppid;
    if (ppid == pid_) out.push_back(static_cast<pid_t>(std::stol(name)));
  }
  return out;
}

ProcSample Daemon::sample() const {
  ProcSample s;
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  for (const pid_t p : processes()) {
    const std::string dir = "/proc/" + std::to_string(p);
    const std::string stat = read_file(dir + "/stat");
    const std::size_t paren = stat.rfind(')');
    if (paren == std::string::npos) continue;
    std::istringstream rest(stat.substr(paren + 2));
    std::string tok;
    // Fields after the command: state(3) ... utime(14) stime(15).
    for (int field = 3; field <= 15 && rest >> tok; ++field) {
      if (field == 14 || field == 15) s.cpu_s += std::stod(tok) / tick;
    }
    s.peak_rss_mb +=
        static_cast<double>(status_field(read_file(dir + "/status"), "VmHWM")) /
        1024.0;
    std::error_code ec;  // the process may exit while it is sampled
    for (const auto& task : fs::directory_iterator(dir + "/task", ec)) {
      const std::string text = read_file(task.path().string() + "/status");
      s.ctx_switches += status_field(text, "voluntary_ctxt_switches") +
                        status_field(text, "nonvoluntary_ctxt_switches");
    }
  }
  return s;
}

std::string last_log_line(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line, last;
  while (std::getline(in, line)) {
    if (line.starts_with(prefix)) last = line;
  }
  return last;
}

}  // namespace perfbench
