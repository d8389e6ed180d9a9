#include "oracle.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>

#include <sys/stat.h>

#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/guidance/advisor.hpp"
#include "ccpred/serve/model_registry.hpp"
#include "ccpred/sim/solver.hpp"

namespace perfbench {

using ccpred::serve::Op;
using ccpred::serve::Request;
using ccpred::serve::Response;

namespace {

constexpr std::size_t kMaxNotes = 8;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

Response expected_response(const Request& request,
                           const ccpred::ml::Regressor& model,
                           std::uint64_t version) {
  const auto simulator = ccpred::serve::simulator_for(request.machine);
  Response r;
  r.ok = true;
  r.op = ccpred::serve::op_name(request.op);
  if (request.op == Op::kJob) {
    const auto job = ccpred::sim::estimate_job(
        simulator, {.o = request.o, .v = request.v, .nodes = request.nodes,
                    .tile = request.tile});
    r.has_job = true;
    r.iterations = job.iterations;
    r.setup_s = job.setup_s;
    r.iteration_s = job.iteration_s;
    r.total_s = job.total_s;
    r.node_hours = job.node_hours;
    return r;
  }
  const ccpred::guide::Advisor advisor(model, simulator);
  const ccpred::guide::Recommendation sweep = advisor.recommend(
      request.o, request.v, ccpred::guide::Objective::kShortestTime);
  ccpred::guide::SweepPoint pick;
  switch (request.op) {
    case Op::kStq:
      pick = {sweep.config, sweep.predicted_time_s, sweep.predicted_node_hours};
      break;
    case Op::kBq:
      pick = ccpred::guide::Advisor::pick_best(
          sweep.sweep, ccpred::guide::Objective::kNodeHours);
      break;
    case Op::kBudget:
      pick = ccpred::guide::Advisor::pick_within_budget(
          sweep, request.max_node_hours);
      break;
    default:
      throw ccpred::Error("the oracle answers stq, bq, budget and job");
  }
  r.has_recommendation = true;
  r.nodes = pick.config.nodes;
  r.tile = pick.config.tile;
  r.time_s = pick.predicted_time_s;
  r.node_hours = pick.predicted_node_hours;
  r.model_version = version;
  r.sweep_size = sweep.sweep.size();
  return r;
}

namespace {

struct Item {
  const QuestionKey* key;
  const Canon* canon;
};

/// Expected answer texts of `items` under `model`, on `threads` threads.
std::vector<std::string> expected_texts(const std::vector<Item>& items,
                                        const ccpred::ml::Regressor& model,
                                        std::uint64_t version, bool binary,
                                        std::size_t threads) {
  std::vector<std::string> out(items.size());
  std::vector<std::thread> pool;
  const std::size_t n = std::max<std::size_t>(1, threads);
  for (std::size_t t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = t; i < items.size(); i += n) {
        try {
          out[i] = answer_text(expected_response(items[i].canon->request, model, version),
                               binary);
        } catch (const std::exception& e) {
          out[i] = std::string("no answer: ") + e.what();
        }
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

/// Responses to `c` whose answer is not `expected`.
std::uint64_t wrong_records(const Canon& c, const std::string& expected) {
  std::uint64_t wrong = 0;
  for (const auto& [text, count] : c.answers) {
    if (text != expected) wrong += count;
  }
  return wrong;
}

}  // namespace

std::string artifact_path(const std::string& dir, const std::string& machine) {
  return dir + "/" + machine + "-gb.model";
}

ArtifactWatcher::ArtifactWatcher(std::string dir,
                                 const std::vector<std::string>& machines,
                                 bool poll)
    : dir_(std::move(dir)), machines_(machines) {
  look();
  if (poll) {
    thread_ = std::thread([this] {
      while (!stop_.load()) {
        look();
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }
}

ArtifactWatcher::~ArtifactWatcher() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
}

void ArtifactWatcher::look() {
  for (const auto& machine : machines_) {
    const std::string path = artifact_path(dir_, machine);
    struct stat st {};
    if (::stat(path.c_str(), &st) != 0) continue;
    // Publishes are tmp + rename, so a new inode marks a new artifact.
    const std::string stamp = std::to_string(st.st_ino) + ":" +
                              std::to_string(st.st_size) + ":" +
                              std::to_string(st.st_mtim.tv_nsec) + ":" +
                              std::to_string(st.st_mtim.tv_sec);
    std::lock_guard<std::mutex> lock(mutex_);
    if (last_stamp_[machine] == stamp) continue;
    last_stamp_[machine] = stamp;
    std::string text = read_file(path);
    auto& list = snapshots_[machine];
    if (!text.empty() && (list.empty() || list.back() != text)) {
      list.push_back(std::move(text));
    }
  }
}

Snapshots ArtifactWatcher::stop() {
  stop_.store(true);
  if (thread_.joinable()) thread_.join();
  look();
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshots_;
}

std::uint64_t failed_records(const RunResult& run, const Verdict& verdict) {
  return run.not_ok + run.missing + run.misordered + verdict.wrong_records;
}

BudgetTable budget_table(const Snapshots& artifacts) {
  BudgetTable table;
  for (const auto& [machine, texts] : artifacts) {
    const auto model = ccpred::ml::deserialize_gb(texts.front());
    const auto simulator = ccpred::serve::simulator_for(machine);
    const ccpred::guide::Advisor advisor(model, simulator);
    for (const Key& key : paper_keys()) {
      if (key.machine != machine) continue;
      table[key_name(machine, key.o, key.v)] =
          advisor.recommend(key.o, key.v, ccpred::guide::Objective::kNodeHours)
              .predicted_node_hours;
    }
  }
  return table;
}

Verdict check_answers(const std::map<QuestionKey, Canon>& answers,
                      const Snapshots& snapshots, bool binary,
                      std::size_t threads) {
  Verdict verdict;
  std::map<std::string, std::map<std::uint64_t, std::vector<Item>>> groups;
  for (const auto& [key, canon] : answers) {
    // Jobs use no model: they sit in a version-0 group of their own.
    const std::uint64_t version =
        canon.request.op == Op::kJob ? 0 : key.model_version;
    groups[key.machine][version].push_back({&key, &canon});
    ++verdict.questions;
  }
  const auto note = [&](std::string what) {
    if (verdict.notes.size() < kMaxNotes) verdict.notes.push_back(std::move(what));
  };
  for (const auto& [machine, versions] : groups) {
    const auto snap_it = snapshots.find(machine);
    if (snap_it == snapshots.end() || snap_it->second.empty()) {
      for (const auto& [version, items] : versions) {
        for (const Item& it : items) {
          verdict.wrong_records += wrong_records(*it.canon, "");
        }
      }
      note("no artifact snapshot for " + machine);
      continue;
    }
    const auto& texts = snap_it->second;
    std::vector<std::unique_ptr<ccpred::ml::GradientBoostingRegressor>> models(
        texts.size());
    const auto model = [&](std::size_t s) -> const ccpred::ml::Regressor& {
      if (!models[s]) {
        models[s] = std::make_unique<ccpred::ml::GradientBoostingRegressor>(
            ccpred::ml::deserialize_gb(texts[s]));
      }
      return *models[s];
    };
    // Versions rise with every (re)load, so they map onto snapshots in
    // order: stay on the current snapshot while it explains the answers.
    std::size_t snap = 0;
    for (const auto& [version, items] : versions) {
      const auto mismatches = [&](std::size_t s) {
        std::vector<std::string> expected =
            expected_texts(items, model(s), version, binary, threads);
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < items.size(); ++i) {
          bad += wrong_records(*items[i].canon, expected[i]);
        }
        return std::make_pair(bad, std::move(expected));
      };
      auto [bad, expected] = mismatches(snap);
      while (bad > 0 && snap + 1 < texts.size()) {
        auto next = mismatches(snap + 1);
        if (next.first >= bad) break;
        ++snap;
        bad = next.first;
        expected = std::move(next.second);
      }
      verdict.wrong_records += bad;
      for (std::size_t i = 0; i < items.size(); ++i) {
        for (const auto& [text, count] : items[i].canon->answers) {
          if (text == expected[i]) continue;
          note(ccpred::serve::format_request(items[i].canon->request) +
               " answered " + text + " (" + std::to_string(count) +
               "x), expected " + expected[i]);
        }
      }
    }
  }
  return verdict;
}

}  // namespace perfbench
