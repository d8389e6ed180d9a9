#include "ccpred/serve/stats.hpp"

#include <algorithm>
#include <type_traits>

namespace ccpred::serve {

ServerStats merge_stats(const std::vector<ServerStats>& shards) {
  ServerStats total;
  // kMean fields first accumulate value * weight, then divide by the
  // merged weight.
  for (const ServerStats& shard : shards) {
    const auto fold = [&](Group, std::size_t verb, const StatsField& f,
                          const auto& value, auto& sum) {
      if constexpr (std::is_floating_point_v<std::decay_t<decltype(sum)>>) {
        if (f.merge == Merge::kMean) {
          sum += value * static_cast<double>(weight_of(f.weight, shard, verb));
        }
      }
      if (f.merge == Merge::kSum) sum += value;
      if (f.merge == Merge::kMax || f.merge == Merge::kOr) {
        sum = std::max(sum, value);
      }
    };
    for_each_value(fold, shard, total);
  }
  const auto finish = [&](Group, std::size_t verb, const StatsField& f,
                          auto& mean) {
    if constexpr (std::is_floating_point_v<std::decay_t<decltype(mean)>>) {
      const std::uint64_t weight = weight_of(f.weight, total, verb);
      if (f.merge == Merge::kMean && weight > 0) {
        mean /= static_cast<double>(weight);
      }
    }
  };
  for_each_value(finish, total);
  recompute_derived(total);
  return total;
}

}  // namespace ccpred::serve
