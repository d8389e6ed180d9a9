#pragma once

/// \file summary.hpp
/// Order statistics for the benchmark's reports. Every timing is reported
/// as a median plus the highest percentile the sample supports: the
/// highest rung of 50, 90, 99, 99.9, ... that still has at least ten
/// samples beyond it, together with the sample count.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady_clock), the one time base of every
/// timestamp the benchmark records.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Samples that must lie beyond a reported tail percentile.
inline constexpr std::size_t kTailSamples = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`;
/// 0 for an empty sample.
double percentile(const std::vector<double>& sorted, double p);

/// Samples strictly beyond the nearest-rank position of percentile `p`
/// in a sample of `n`.
std::size_t samples_beyond(std::size_t n, double p);

/// The highest percentile of 50, 90, 99, 99.9, ... with at least
/// kTailSamples samples beyond it; 0 when even the median lacks them.
double highest_supported_percentile(std::size_t n);

/// Median, p99 and the supported tail of one latency sample.
struct LatencySummary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_percentile = 0.0;  ///< highest_supported_percentile(count)
  double tail = 0.0;             ///< value at tail_percentile
};

/// Sorts `values` in place and summarizes them.
LatencySummary summarize(std::vector<double>& values);

/// Median of `values` (sorted in place); 0 for an empty sample.
double median(std::vector<double>& values);

}  // namespace perfbench
