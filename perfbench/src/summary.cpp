#include "summary.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile p in a sample of n (n >= 1).
std::size_t nearest_rank(std::size_t n, double p) {
  // The epsilon keeps 99.9% of 10000 at rank 9990 despite rounding.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), p) - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

double highest_supported_percentile(std::size_t n) {
  double best = 0.0;
  // 50, 90, 99, 99.9, ...: each rung leaves ten times fewer samples beyond.
  for (double p = 50.0, gap = 10.0; gap > 1e-9; gap /= 10.0) {
    if (samples_beyond(n, p) < kTailSamples) break;
    best = p;
    p = 100.0 - gap;
  }
  return best;
}

LatencySummary summarize(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  LatencySummary s;
  s.count = values.size();
  s.p50 = percentile(values, 50.0);
  s.p99 = percentile(values, 99.0);
  s.tail_percentile = highest_supported_percentile(values.size());
  s.tail = s.tail_percentile > 0.0 ? percentile(values, s.tail_percentile)
                                   : 0.0;
  return s;
}

double median(std::vector<double>& values) {
  std::sort(values.begin(), values.end());
  return percentile(values, 50.0);
}

}  // namespace perfbench
