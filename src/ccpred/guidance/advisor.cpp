#include "ccpred/guidance/advisor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ccpred/common/error.hpp"

namespace ccpred::guide {

namespace {

/// A NaN/Inf prediction would silently win or lose every comparison below,
/// turning one bad model output into a confidently wrong recommendation —
/// reject the sweep instead and name the offending configuration.
void check_sweep_finite(const std::vector<SweepPoint>& sweep) {
  for (const auto& pt : sweep) {
    CCPRED_CHECK_MSG(std::isfinite(pt.predicted_time_s) &&
                         std::isfinite(pt.predicted_node_hours),
                     "non-finite prediction (time="
                         << pt.predicted_time_s
                         << ", node_hours=" << pt.predicted_node_hours
                         << ") for O=" << pt.config.o << " V=" << pt.config.v
                         << " nodes=" << pt.config.nodes
                         << " tile=" << pt.config.tile
                         << "; refusing to recommend from a corrupt sweep");
  }
}

}  // namespace

std::vector<SweepPoint> pareto_front(const std::vector<SweepPoint>& sweep) {
  std::vector<SweepPoint> sorted = sweep;
  std::sort(sorted.begin(), sorted.end(),
            [](const SweepPoint& a, const SweepPoint& b) {
              if (a.predicted_time_s != b.predicted_time_s) {
                return a.predicted_time_s < b.predicted_time_s;
              }
              return a.predicted_node_hours < b.predicted_node_hours;
            });
  std::vector<SweepPoint> front;
  double best_cost = std::numeric_limits<double>::infinity();
  for (const auto& pt : sorted) {
    if (pt.predicted_node_hours < best_cost) {
      front.push_back(pt);
      best_cost = pt.predicted_node_hours;
    }
  }
  return front;
}

Advisor::Advisor(const ml::Regressor& model,
                 const sim::CcsdSimulator& simulator)
    : model_(model), simulator_(simulator) {
  CCPRED_CHECK_MSG(model.is_fitted(), "Advisor needs a fitted model");
}

Recommendation Advisor::recommend(int o, int v, Objective objective) const {
  CCPRED_CHECK_MSG(o > 0 && v > 0, "orbital counts must be positive");
  const std::vector<int> node_menu = simulator_.machine().node_menu();
  const std::vector<int> tile_menu = simulator_.machine().tile_menu();

  // The feasible cells of the node x tile menu grid, in menu order.
  std::vector<SweepPoint> sweep;
  std::vector<std::size_t> cells;
  for (std::size_t i = 0; i < node_menu.size(); ++i) {
    for (std::size_t j = 0; j < tile_menu.size(); ++j) {
      const sim::RunConfig cfg{
          .o = o, .v = v, .nodes = node_menu[i], .tile = tile_menu[j]};
      if (simulator_.feasible(cfg)) {
        sweep.emplace_back().config = cfg;
        cells.push_back(i * tile_menu.size() + j);
      }
    }
  }
  CCPRED_CHECK_MSG(!sweep.empty(), "no feasible configuration for O="
                                       << o << " V=" << v);

  // One prediction over the whole menu grid (tree ensembles descend each
  // tree once for all of it); infeasible cells are dropped afterwards.
  ml::FeatureGrid grid;
  grid.base.assign(data::kNumFeatures, 0.0);
  grid.base[data::kFeatO] = o;
  grid.base[data::kFeatV] = v;
  grid.col_a = data::kFeatNodes;
  grid.a.assign(node_menu.begin(), node_menu.end());
  grid.col_b = data::kFeatTile;
  grid.b.assign(tile_menu.begin(), tile_menu.end());
  const std::vector<double> times = model_.predict_grid(grid);
  for (std::size_t k = 0; k < sweep.size(); ++k) {
    sweep[k].predicted_time_s = times[cells[k]];
    sweep[k].predicted_node_hours =
        sim::CcsdSimulator::node_hours(sweep[k].config, times[cells[k]]);
  }
  return from_sweep(std::move(sweep), objective);
}

Recommendation Advisor::from_sweep(std::vector<SweepPoint> sweep,
                                   Objective objective) {
  Recommendation rec;
  rec.objective = objective;
  rec.sweep = std::move(sweep);
  const SweepPoint& pt = pick_best(rec.sweep, objective);
  rec.config = pt.config;
  rec.predicted_time_s = pt.predicted_time_s;
  rec.predicted_node_hours = pt.predicted_node_hours;
  return rec;
}

const SweepPoint& Advisor::pick_best(const std::vector<SweepPoint>& sweep,
                                     Objective objective) {
  CCPRED_CHECK_MSG(!sweep.empty(), "cannot recommend from an empty sweep");
  check_sweep_finite(sweep);
  const SweepPoint* best = nullptr;
  double best_value = 0.0;
  for (const auto& pt : sweep) {
    const double value = objective == Objective::kShortestTime
                             ? pt.predicted_time_s
                             : pt.predicted_node_hours;
    if (best == nullptr || value < best_value) {
      best_value = value;
      best = &pt;
    }
  }
  return *best;
}

Recommendation Advisor::fastest_within_budget(int o, int v,
                                               double max_node_hours) const {
  // One recommend() sweep, then the constraint filter on the cached points.
  return fastest_within_budget(recommend(o, v, Objective::kShortestTime),
                               max_node_hours);
}

Recommendation Advisor::fastest_within_budget(const Recommendation& base,
                                              double max_node_hours) {
  const SweepPoint& pt = pick_within_budget(base, max_node_hours);
  Recommendation rec = base;
  rec.objective = Objective::kShortestTime;
  rec.config = pt.config;
  rec.predicted_time_s = pt.predicted_time_s;
  rec.predicted_node_hours = pt.predicted_node_hours;
  return rec;
}

const SweepPoint& Advisor::pick_within_budget(const Recommendation& base,
                                              double max_node_hours) {
  CCPRED_CHECK_MSG(max_node_hours > 0.0, "budget must be positive");
  check_sweep_finite(base.sweep);
  const SweepPoint* best = nullptr;
  double best_time = 0.0;
  for (const auto& pt : base.sweep) {
    if (pt.predicted_node_hours > max_node_hours) continue;
    if (best == nullptr || pt.predicted_time_s < best_time) {
      best_time = pt.predicted_time_s;
      best = &pt;
    }
  }
  CCPRED_CHECK_MSG(best != nullptr, "no swept configuration for O="
                                        << base.config.o
                                        << " V=" << base.config.v
                                        << " fits within " << max_node_hours
                                        << " node-hours");
  return *best;
}

}  // namespace ccpred::guide
