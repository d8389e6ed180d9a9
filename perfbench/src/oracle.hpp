#pragma once

/// \file oracle.hpp
/// The answer oracle. After the timed phase every distinct question the
/// daemon answered is recomputed in the benchmark process: STQ/BQ/budget
/// with guide::Advisor over the very artifact that served it, `job` with
/// sim::estimate_job. Answers must match exactly (JSON: as rendered on
/// the wire; binary frames: bit for bit).
///
/// Online learning republishes artifacts mid-run, so the oracle keeps
/// every version of each artifact an ArtifactWatcher saw and maps the
/// daemon's model versions onto them in publish order.

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "ccpred/core/regressor.hpp"
#include "loadgen.hpp"

namespace perfbench {

/// Artifact texts per machine, oldest first.
using Snapshots = std::map<std::string, std::vector<std::string>>;

/// Polls the GB artifact of each machine and records every distinct
/// content it sees, from construction until stop().
class ArtifactWatcher {
 public:
  ArtifactWatcher(std::string dir, const std::vector<std::string>& machines,
                  bool poll);
  ~ArtifactWatcher();
  ArtifactWatcher(const ArtifactWatcher&) = delete;
  ArtifactWatcher& operator=(const ArtifactWatcher&) = delete;

  /// Stops polling, takes a last look, and returns the snapshots.
  Snapshots stop();

 private:
  void look();

  std::string dir_;
  std::vector<std::string> machines_;
  std::mutex mutex_;
  Snapshots snapshots_;
  std::map<std::string, std::string> last_stamp_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  ///< last member: joined before the fields die
};

/// Path of the GB artifact of `machine` in `dir`.
std::string artifact_path(const std::string& dir, const std::string& machine);

struct Verdict {
  std::uint64_t questions = 0;      ///< distinct (question, version) checked
  std::uint64_t wrong_records = 0;  ///< responses whose answer is wrong
  std::vector<std::string> notes;   ///< first few mismatches
};

/// Recomputes every canonical answer with `threads` worker threads.
Verdict check_answers(const std::map<QuestionKey, Canon>& answers,
                      const Snapshots& snapshots, bool binary,
                      std::size_t threads);

/// Records that failed: answered ok=false, never answered (a lost
/// connection leaves its in-flight records unanswered), answered out of
/// order, or answered wrong.
std::uint64_t failed_records(const RunResult& run, const Verdict& verdict);

/// Minimum model-predicted node-hours of every paper key, from the first
/// snapshot of each machine's artifact.
BudgetTable budget_table(const Snapshots& artifacts);

/// The response the daemon must give to `request` under `model` at
/// `model_version`. Throws when the question has no answer (for instance
/// an infeasible budget).
ccpred::serve::Response expected_response(
    const ccpred::serve::Request& request, const ccpred::ml::Regressor& model,
    std::uint64_t model_version);

}  // namespace perfbench
