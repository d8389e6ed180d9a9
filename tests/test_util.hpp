#pragma once

/// \file test_util.hpp
/// Shared fixtures for the ccpred test suite: synthetic regression data,
/// a small, fast CCSD campaign, hermetic scratch directories and a fully
/// populated stats snapshot.

#include <stdlib.h>

#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccpred/common/rng.hpp"
#include "ccpred/data/generator.hpp"
#include "ccpred/data/split.hpp"
#include "ccpred/linalg/matrix.hpp"
#include "ccpred/serve/stats.hpp"

namespace ccpred::test {

/// Synthetic regression problem y = f(x) + noise on d uniform features.
struct Synthetic {
  linalg::Matrix x;
  std::vector<double> y;
};

/// Linear target: y = 3 x0 - 2 x1 + 0.5 x2 + 1 (+ gaussian noise).
inline Synthetic make_linear(std::size_t n, double noise_std = 0.0,
                             std::uint64_t seed = 1) {
  Rng rng(seed);
  Synthetic s{linalg::Matrix(n, 3), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) s.x(i, c) = rng.uniform(-2.0, 2.0);
    s.y[i] = 3.0 * s.x(i, 0) - 2.0 * s.x(i, 1) + 0.5 * s.x(i, 2) + 1.0 +
             rng.normal(0.0, noise_std);
  }
  return s;
}

/// Smooth nonlinear target: y = sin(2 x0) + x1^2 - x0 x2 (+ noise).
inline Synthetic make_nonlinear(std::size_t n, double noise_std = 0.0,
                                std::uint64_t seed = 2) {
  Rng rng(seed);
  Synthetic s{linalg::Matrix(n, 3), std::vector<double>(n)};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < 3; ++c) s.x(i, c) = rng.uniform(-2.0, 2.0);
    s.y[i] = std::sin(2.0 * s.x(i, 0)) + s.x(i, 1) * s.x(i, 1) -
             s.x(i, 0) * s.x(i, 2) + rng.normal(0.0, noise_std);
  }
  return s;
}

/// A small CCSD campaign (fast to generate, ~n rows) on Aurora with its
/// 75/25 coverage split.
inline data::TrainTest small_campaign(std::size_t n = 400,
                                      std::uint64_t seed = 3) {
  static const sim::CcsdSimulator simulator(sim::MachineModel::aurora());
  const std::vector<data::Problem> problems = {
      {44, 260}, {85, 698}, {116, 575}, {134, 951}, {180, 720}};
  data::GeneratorOptions opt;
  opt.seed = seed;
  opt.target_total = n;
  const auto ds = data::generate_dataset(simulator, problems, opt);
  Rng rng(seed ^ 0xabc);
  auto split = data::stratified_split_fraction(ds, 0.25, rng);
  data::ensure_config_coverage(ds, split);
  return data::apply_split(ds, split);
}

/// A fresh, empty directory `name` under a per-process root that mkdtemp
/// creates on first use, so concurrent test processes never share (or
/// wipe) each other's files. Calling it again with the same name within
/// one process wipes and recreates the directory. The root is removed at
/// process exit.
inline std::string scratch_dir(const std::string& name) {
  namespace fs = std::filesystem;
  struct Root {
    fs::path path;
    Root() {
      std::string tmpl =
          (fs::temp_directory_path() / "ccpred_test_XXXXXX").string();
      if (::mkdtemp(tmpl.data()) == nullptr) {
        throw std::runtime_error("mkdtemp failed for " + tmpl);
      }
      path = tmpl;
    }
    ~Root() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  };
  static const Root root;
  const fs::path dir = root.path / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// A stats snapshot with every field, every verb and the online block set
/// to distinct values, so a dropped, swapped or retyped field changes its
/// encodings and its merges.
inline serve::ServerStats full_stats() {
  serve::ServerStats s;
  s.requests = 101;
  s.errors = 102;
  s.sweeps_computed = 103;
  s.coalesced = 104;
  s.cache_hits = 105;
  s.cache_misses = 106;
  s.cache_evictions = 107;
  s.cache_hit_rate = 0.4976525822;
  s.cache_size = 108;
  s.queue_depth = 109;
  s.deadline_exceeded = 110;
  s.shed = 111;
  s.stale_served = 112;
  s.reload_failures = 113;
  s.retries = 114;
  s.models_loaded = 115;
  s.models_trained = 116;
  s.latency_p50_ms = 1.25;
  s.latency_p95_ms = 2.5;
  s.latency_mean_ms = 1.0 / 3.0;  // exercises the 10-digit JSON rounding
  s.batched_requests = 117;
  s.batch_flushes = 118;
  s.batch_bypass = 119;
  s.batch_size_p50 = 3.75;
  s.batch_size_p95 = 7.5;
  s.overflow_closed = 120;
  for (std::size_t i = 0; i < serve::kNumOps; ++i) {
    serve::VerbLatency& v = s.verb_latency[i];
    const double base = 10.0 * static_cast<double>(i + 1);
    v.count = 200 + i;
    v.p50_ms = base + 0.125;
    v.p95_ms = base + 0.25;
    v.p99_ms = base + 0.5;
    v.max_ms = base + 0.75;
  }
  s.online_enabled = true;
  serve::OnlineStats& o = s.online;
  o.reports = 301;
  o.measurements = 302;
  o.duplicates = 303;
  o.rejected = 304;
  o.buffered = 305;
  o.rolling_mape = 0.0625;
  o.drift_events = 306;
  o.incremental_updates = 307;
  o.refits = 308;
  o.shadow_evals = 309;
  o.promotions = 310;
  o.promotions_rejected = 311;
  o.cache_invalidated = 312;
  return s;
}

}  // namespace ccpred::test
