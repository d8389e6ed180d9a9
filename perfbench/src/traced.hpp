#pragma once

/// \file traced.hpp
/// The traced run's two halves.
///
/// run_traced composes ModelRegistry + Server + EventLoopServer in this
/// process with serverd's defaults (batching 64 / 200 us) and drives the
/// workload at it over loopback. It wraps the event loop's Dispatch,
/// BatchDispatch and Completion callbacks in spans keyed by request id
/// (client send -> dispatch entry -> completion -> answer at the client),
/// keeps them in memory and writes them out as JSON lines at the end.
/// Tracing is switched off, on, on, off across four equal segments so
/// 1 - traced/untraced answers_per_s gives the tracing overhead.
///
/// micro_timings times the pure public functions of each layer on the
/// workload's own inputs.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ccpred/serve/protocol.hpp"
#include "workload.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/// Runs the traced in-process phase for `seconds` and adds the span-derived
/// metrics (ingress, egress, per-verb service time, trace overhead) to
/// `metrics`. Spans go to `spans_path`.
void run_traced(Workload w, std::uint64_t seed, double seconds,
                const BudgetTable& budgets, const std::string& artifact_dir,
                const std::string& spans_path, Metrics& metrics);

/// Times parse/format, wire encode/decode, ModelRegistry::get, the
/// Advisor sweep, Regressor::predict and sim::estimate_job on `requests`
/// (the workload's own) and adds the results to `metrics`.
void micro_timings(const std::vector<ccpred::serve::Request>& requests,
                   const std::string& artifact_dir, Metrics& metrics);

/// The first `n` records a workload sends (for micro timings).
std::vector<ccpred::serve::Request> sample_requests(Workload w,
                                                    std::uint64_t seed,
                                                    const BudgetTable& budgets,
                                                    std::size_t n);

}  // namespace perfbench
