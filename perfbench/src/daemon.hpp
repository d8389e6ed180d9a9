#pragma once

/// \file daemon.hpp
/// The daemon under test as a child process: spawned from the Release
/// build with its stdin on a pipe (EOF is serverd's shutdown signal),
/// stdout discarded and stderr logged into the run directory. Ports are
/// discovered free before spawning, including the fleet's shard ports
/// P+1..P+N, and a daemon that does not exit within a timeout after EOF
/// is killed and reported as hung.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Runs `argv` to completion with stdio detached; returns its exit
/// status, or -1 when it had to be killed at `timeout_s`.
int run_command(const std::vector<std::string>& argv, const std::string& log,
                double timeout_s);

/// CPU and scheduling counters of a process tree, from /proc.
struct ProcSample {
  double cpu_s = 0.0;              ///< user + system time
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary, all threads
  double peak_rss_mb = 0.0;        ///< sum of VmHWM
};

class Daemon {
 public:
  /// Spawns `serverd serve --port P <flags>` (P chosen here; `shards`
  /// extra ports reserved for --fleet) and waits until P accepts
  /// connections. Retries with fresh ports if the spawn loses a port race.
  /// Throws ccpred::Error if the daemon never comes up.
  Daemon(const std::string& serverd, const std::vector<std::string>& flags,
         int shards, const std::string& log);
  /// Stops the daemon (see stop()); kills it if stop() was never called.
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Monotonic ns just before the fork.
  std::int64_t spawned_ns() const { return spawned_ns_; }

  /// Closes stdin and waits up to `timeout_s` for a clean exit. Returns
  /// true on a clean exit; false when the daemon hung and was killed (or
  /// exited nonzero).
  bool stop(double timeout_s);

  /// The daemon and its fleet children.
  std::vector<pid_t> processes() const;
  ProcSample sample() const;

 private:
  bool spawn(const std::string& serverd, const std::vector<std::string>& flags,
             int shards);

  std::string log_;
  int port_ = 0;
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  std::int64_t spawned_ns_ = 0;
};

/// The last line of `path` that starts with `prefix` ("" if none).
std::string last_log_line(const std::string& path, const std::string& prefix);

}  // namespace perfbench
