// Property tests for the fast tree-ensemble engine: FeatureBins binning
// invariants, histogram-mode training accuracy vs the exact reference, and
// bit-identity of CompiledEnsemble batch inference against the tree walk.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "ccpred/core/compiled_ensemble.hpp"
#include "ccpred/core/decision_tree.hpp"
#include "ccpred/core/gradient_boosting.hpp"
#include "ccpred/core/grid_search.hpp"
#include "ccpred/core/metrics.hpp"
#include "ccpred/core/random_forest.hpp"
#include "ccpred/core/serialize.hpp"
#include "ccpred/data/problems.hpp"
#include "ccpred/sim/machine.hpp"
#include "test_util.hpp"

namespace ccpred {
namespace {

using ml::CompiledEnsemble;
using ml::DecisionTreeRegressor;
using ml::FeatureBins;
using ml::GradientBoostingRegressor;
using ml::RandomForestRegressor;
using ml::SplitMode;
using ml::TreeOptions;

// Menu-structured matrix like the paper's features: every column draws from
// a small discrete set of values.
linalg::Matrix make_menu_matrix(std::size_t n, std::size_t d,
                                std::size_t menu_size, std::uint64_t seed) {
  Rng rng(seed);
  linalg::Matrix x(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < d; ++c) {
      x(i, c) = static_cast<double>(rng.uniform_int(
                    0, static_cast<std::int64_t>(menu_size) - 1)) *
                    1.5 -
                3.0;
    }
  }
  return x;
}

// ---------- FeatureBins ----------

class FeatureBinsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FeatureBinsProperty, CodeEdgeEquivalenceHolds) {
  const auto s = test::make_nonlinear(160, 0.1, GetParam());
  const int max_bins = 32;
  const auto bins = FeatureBins::build(s.x, max_bins);
  ASSERT_EQ(bins.rows(), s.x.rows());
  ASSERT_EQ(bins.cols(), s.x.cols());
  for (std::size_t f = 0; f < bins.cols(); ++f) {
    ASSERT_GE(bins.bin_count(f), 1);
    ASSERT_LE(bins.bin_count(f), max_bins);
    for (std::size_t r = 0; r < bins.rows(); ++r) {
      const int code = bins.code(r, f);
      ASSERT_LT(code, bins.bin_count(f));
      // The defining invariant: code(x) <= b  ⇔  x <= upper_edge(f, b).
      for (int b = 0; b + 1 < bins.bin_count(f); ++b) {
        EXPECT_EQ(code <= b, s.x(r, f) <= bins.upper_edge(f, b))
            << "row " << r << " feature " << f << " bin " << b;
      }
    }
  }
}

TEST_P(FeatureBinsProperty, MenuFeaturesGetOneBinPerDistinctValue) {
  const auto x = make_menu_matrix(300, 4, 7, GetParam());
  const auto bins = FeatureBins::build(x, 255);
  for (std::size_t f = 0; f < bins.cols(); ++f) {
    std::set<double> distinct;
    for (std::size_t r = 0; r < x.rows(); ++r) distinct.insert(x(r, f));
    EXPECT_EQ(bins.bin_count(f), static_cast<int>(distinct.size()));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeatureBinsProperty,
                         ::testing::Values(11u, 22u, 33u));

TEST(FeatureBinsTest, ConstantColumnGetsSingleBin) {
  linalg::Matrix x(50, 2);
  Rng rng(5);
  for (std::size_t i = 0; i < 50; ++i) {
    x(i, 0) = 4.25;
    x(i, 1) = rng.uniform(0.0, 1.0);
  }
  const auto bins = FeatureBins::build(x, 16);
  EXPECT_EQ(bins.bin_count(0), 1);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(bins.code(i, 0), 0);
}

TEST(FeatureBinsTest, ManyDistinctValuesRespectMaxBins) {
  const auto s = test::make_nonlinear(2000, 0.0, 17);
  const auto bins = FeatureBins::build(s.x, 24);
  for (std::size_t f = 0; f < bins.cols(); ++f) {
    EXPECT_LE(bins.bin_count(f), 24);
    EXPECT_GE(bins.bin_count(f), 20);  // quantile bins should be used
  }
}

// ---------- histogram training accuracy ----------

TreeOptions hist_options(int max_bins = 64) {
  TreeOptions opt;
  opt.split_mode = SplitMode::kHistogram;
  opt.max_bins = max_bins;
  return opt;
}

class HistogramAccuracy : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HistogramAccuracy, TreeMatchesExactOnMenuFeatures) {
  // With <= max_bins distinct values per feature the candidate-threshold
  // set is identical to exact mode's, so the fitted trees agree.
  const auto x = make_menu_matrix(400, 3, 9, GetParam());
  std::vector<double> y(x.rows());
  Rng rng(GetParam() ^ 0x9e);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    y[i] = 2.0 * x(i, 0) - x(i, 1) * x(i, 2) + rng.normal(0.0, 0.05);
  }
  TreeOptions exact_opt;
  exact_opt.max_depth = 6;
  DecisionTreeRegressor exact(exact_opt);
  exact.fit(x, y);
  TreeOptions h = hist_options(255);
  h.max_depth = 6;
  DecisionTreeRegressor hist(h);
  hist.fit(x, y);
  const auto pe = exact.predict(x);
  const auto ph = hist.predict(x);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    EXPECT_NEAR(pe[i], ph[i], 1e-9) << "row " << i;
  }
}

TEST_P(HistogramAccuracy, GbHistogramWithinToleranceOfExact) {
  const auto train = test::make_nonlinear(1200, 0.1, GetParam());
  const auto test_set = test::make_nonlinear(400, 0.1, GetParam() ^ 0xf00d);
  TreeOptions exact_opt;
  exact_opt.max_depth = 4;
  GradientBoostingRegressor gb_exact(120, 0.1, exact_opt);
  gb_exact.fit(train.x, train.y);
  TreeOptions h = hist_options(64);
  h.max_depth = 4;
  GradientBoostingRegressor gb_hist(120, 0.1, h);
  gb_hist.fit(train.x, train.y);

  const auto se = ml::score_all(test_set.y, gb_exact.predict(test_set.x));
  const auto sh = ml::score_all(test_set.y, gb_hist.predict(test_set.x));
  EXPECT_GT(se.r2, 0.9);  // sanity: the reference itself fits well
  EXPECT_GT(sh.r2, se.r2 - 0.03);
  EXPECT_LT(sh.mae, se.mae * 1.35 + 1e-3);
}

TEST_P(HistogramAccuracy, RfHistogramWithinToleranceOfExact) {
  const auto train = test::make_nonlinear(900, 0.1, GetParam());
  const auto test_set = test::make_nonlinear(300, 0.1, GetParam() ^ 0xbeef);
  TreeOptions exact_opt;
  exact_opt.max_depth = 8;
  RandomForestRegressor rf_exact(40, exact_opt, true, 9);
  rf_exact.fit(train.x, train.y);
  TreeOptions h = hist_options(64);
  h.max_depth = 8;
  RandomForestRegressor rf_hist(40, h, true, 9);
  rf_hist.fit(train.x, train.y);

  const auto se = ml::score_all(test_set.y, rf_exact.predict(test_set.x));
  const auto sh = ml::score_all(test_set.y, rf_hist.predict(test_set.x));
  EXPECT_GT(se.r2, 0.85);
  EXPECT_GT(sh.r2, se.r2 - 0.05);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramAccuracy,
                         ::testing::Values(101u, 202u, 303u));

// ---------- compiled inference bit-identity ----------

struct EngineCase {
  std::uint64_t seed;
  SplitMode mode;
};

class CompiledBitIdentity : public ::testing::TestWithParam<EngineCase> {};

TEST_P(CompiledBitIdentity, GbPredictIsBitIdenticalToWalk) {
  const auto p = GetParam();
  const auto train = test::make_nonlinear(500, 0.1, p.seed);
  const auto query = test::make_nonlinear(700, 0.1, p.seed ^ 0x51);
  TreeOptions opt;
  opt.max_depth = 5;
  opt.split_mode = p.mode;
  opt.max_bins = 48;
  GradientBoostingRegressor gb(60, 0.1, opt, 0.8, p.seed);
  gb.fit(train.x, train.y);

  const auto compiled = gb.predict(query.x);
  const auto walk = gb.predict_walk(query.x);
  ASSERT_EQ(compiled.size(), walk.size());
  for (std::size_t i = 0; i < walk.size(); ++i) {
    EXPECT_EQ(compiled[i], walk[i]) << "row " << i;  // bitwise, not NEAR
  }
  // Single-row entry point agrees with the batch kernel.
  for (std::size_t i = 0; i < query.x.rows(); i += 97) {
    EXPECT_EQ(gb.compiled().predict_row(query.x.row_ptr(i)), compiled[i]);
  }
}

TEST_P(CompiledBitIdentity, RfPredictIsBitIdenticalToWalk) {
  const auto p = GetParam();
  const auto train = test::make_nonlinear(400, 0.1, p.seed);
  const auto query = test::make_nonlinear(600, 0.1, p.seed ^ 0x52);
  TreeOptions opt;
  opt.max_depth = 7;
  opt.max_features = 2;
  opt.split_mode = p.mode;
  opt.max_bins = 48;
  RandomForestRegressor rf(30, opt, true, p.seed);
  rf.fit(train.x, train.y);

  const auto compiled = rf.predict(query.x);
  const auto walk = rf.predict_walk(query.x);
  ASSERT_EQ(compiled.size(), walk.size());
  for (std::size_t i = 0; i < walk.size(); ++i) {
    EXPECT_EQ(compiled[i], walk[i]) << "row " << i;
  }
  for (std::size_t i = 0; i < query.x.rows(); i += 89) {
    EXPECT_EQ(rf.compiled().predict_row(query.x.row_ptr(i)), compiled[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CompiledBitIdentity,
    ::testing::Values(EngineCase{7u, SplitMode::kExact},
                      EngineCase{7u, SplitMode::kHistogram},
                      EngineCase{19u, SplitMode::kExact},
                      EngineCase{19u, SplitMode::kHistogram},
                      EngineCase{31u, SplitMode::kExact}));

TEST(CompiledEnsembleTest, SerializationRoundTripStaysBitIdentical) {
  // The serving registry loads via from_parts; the reloaded model must
  // compile eagerly and predict exactly like the original.
  const auto train = test::make_nonlinear(300, 0.1, 77);
  const auto query = test::make_nonlinear(300, 0.1, 78);
  GradientBoostingRegressor gb(40, 0.1, hist_options(32));
  gb.fit(train.x, train.y);
  const auto loaded = ml::deserialize_gb(ml::serialize_gb(gb));
  const auto a = gb.predict(query.x);
  const auto b = loaded.predict(query.x);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);

  RandomForestRegressor rf(20, {});
  rf.fit(train.x, train.y);
  const auto rf_loaded = ml::deserialize_rf(ml::serialize_rf(rf));
  const auto ra = rf.predict(query.x);
  const auto rb = rf_loaded.predict(query.x);
  for (std::size_t i = 0; i < ra.size(); ++i) EXPECT_EQ(ra[i], rb[i]);
}

TEST(CompiledEnsembleTest, BlockBoundarySizesAllAgree) {
  // Exercise batch sizes straddling the internal row-block length.
  const auto train = test::make_nonlinear(300, 0.1, 55);
  GradientBoostingRegressor gb(25, 0.1, {});
  gb.fit(train.x, train.y);
  for (const std::size_t n : {1u, 255u, 256u, 257u, 513u}) {
    const auto query = test::make_nonlinear(n, 0.1, 91);
    const auto compiled = gb.predict(query.x);
    const auto walk = gb.predict_walk(query.x);
    ASSERT_EQ(compiled.size(), n);
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(compiled[i], walk[i]);
  }
}

TEST(CompiledEnsembleTest, CountsMatchSourceModel) {
  const auto train = test::make_nonlinear(200, 0.1, 66);
  GradientBoostingRegressor gb(15, 0.1, {});
  gb.fit(train.x, train.y);
  std::size_t nodes = 0;
  for (const auto& t : gb.stages()) nodes += t.node_count();
  EXPECT_EQ(gb.compiled().tree_count(), gb.stage_count());
  EXPECT_EQ(gb.compiled().node_count(), nodes);
}

// ---------- grid prediction (predict_grid) ----------

/// Every threshold `trees` split `feature` at, sorted and unique.
std::vector<double> split_thresholds(
    const std::vector<DecisionTreeRegressor>& trees, int feature) {
  std::set<double> out;
  for (const auto& tree : trees) {
    for (const auto& node : tree.nodes()) {
      if (node.feature == feature) out.insert(node.threshold);
    }
  }
  return {out.begin(), out.end()};
}

/// The advisor's sweep grid: (o, v) fixed, node menu x tile menu.
ml::FeatureGrid menu_grid(const sim::MachineModel& machine, double o,
                          double v) {
  ml::FeatureGrid grid;
  grid.base = {o, v, 0.0, 0.0};
  grid.col_a = data::kFeatNodes;
  for (int n : machine.node_menu()) grid.a.push_back(n);
  grid.col_b = data::kFeatTile;
  for (int t : machine.tile_menu()) grid.b.push_back(t);
  return grid;
}

/// Counts cells where predict_grid differs in any bit from the reference
/// walk, the row kernel, or the single-row path over grid.rows().
template <typename Model>
std::size_t grid_mismatches(const Model& model, const ml::FeatureGrid& grid) {
  const auto cells = model.predict_grid(grid);
  const auto rows = grid.rows();
  const auto walk = model.predict_walk(rows);
  const auto batch = model.predict(rows);
  EXPECT_EQ(cells.size(), grid.size());
  EXPECT_EQ(walk.size(), grid.size());
  std::size_t bad = 0;
  for (std::size_t i = 0; i < cells.size() && i < walk.size(); ++i) {
    const double row = model.compiled().predict_row(rows.row_ptr(i));
    // EXPECT_EQ on doubles is bitwise for non-NaN values, which the
    // finite leaf sums always are.
    if (!(cells[i] == walk[i] && cells[i] == batch[i] && cells[i] == row)) {
      if (bad == 0) {
        ADD_FAILURE() << "cell " << i << ": grid " << cells[i] << " walk "
                      << walk[i] << " batch " << batch[i] << " row " << row;
      }
      ++bad;
    }
  }
  return bad;
}

/// GB (exact and histogram splits) and RF fitted on a small CCSD
/// campaign, shared by the grid tests.
class PredictGrid : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto tt = test::small_campaign(500);
    const linalg::Matrix x = tt.train.features();
    const std::vector<double>& y = tt.train.targets();
    TreeOptions exact;
    exact.max_depth = 10;
    gb_exact_ = new GradientBoostingRegressor(120, 0.1, exact);
    gb_exact_->fit(x, y);
    gb_hist_ = new GradientBoostingRegressor(120, 0.1, hist_options(255));
    gb_hist_->fit(x, y);
    rf_ = new RandomForestRegressor(40, {}, true, 5);
    rf_->fit(x, y);
  }
  static void TearDownTestSuite() {
    delete gb_exact_;
    delete gb_hist_;
    delete rf_;
  }

  /// Mismatching cells of `grid` summed over the three models.
  static std::size_t mismatches(const ml::FeatureGrid& grid) {
    return grid_mismatches(*gb_exact_, grid) +
           grid_mismatches(*gb_hist_, grid) + grid_mismatches(*rf_, grid);
  }

  static GradientBoostingRegressor* gb_exact_;
  static GradientBoostingRegressor* gb_hist_;
  static RandomForestRegressor* rf_;
};

GradientBoostingRegressor* PredictGrid::gb_exact_ = nullptr;
GradientBoostingRegressor* PredictGrid::gb_hist_ = nullptr;
RandomForestRegressor* PredictGrid::rf_ = nullptr;

TEST_F(PredictGrid, PaperProblemsOnBothMenusAreBitIdentical) {
  std::vector<data::Problem> problems = data::aurora_problems();
  const auto& frontier = data::frontier_problems();
  problems.insert(problems.end(), frontier.begin(), frontier.end());
  ASSERT_EQ(problems.size(), 42u);
  for (const auto& machine :
       {sim::MachineModel::aurora(), sim::MachineModel::frontier()}) {
    for (const auto& p : problems) {
      EXPECT_EQ(mismatches(menu_grid(machine, p.o, p.v)), 0u)
          << p.o << "/" << p.v;
    }
  }
}

TEST_F(PredictGrid, SeededRandomProblemsInAndOutOfSupportAreBitIdentical) {
  // The campaign spans O 44..180, V 260..951; draw half inside that box
  // and half from a far wider one.
  Rng rng(2025);
  const auto machine = sim::MachineModel::aurora();
  for (int i = 0; i < 40; ++i) {
    const bool inside = i % 2 == 0;
    const auto o = static_cast<double>(inside ? rng.uniform_int(44, 180)
                                              : rng.uniform_int(1, 1000));
    const auto v = static_cast<double>(inside ? rng.uniform_int(260, 951)
                                              : rng.uniform_int(1, 8000));
    EXPECT_EQ(mismatches(menu_grid(machine, o, v)), 0u) << o << "/" << v;
  }
}

TEST_F(PredictGrid, AxisValuesOnBelowAndAboveThresholdsAreBitIdentical) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const auto* gb : {gb_exact_, gb_hist_}) {
    const auto na = split_thresholds(gb->stages(), data::kFeatNodes);
    const auto nt = split_thresholds(gb->stages(), data::kFeatTile);
    ASSERT_FALSE(na.empty());
    ASSERT_FALSE(nt.empty());
    // Axes made of the thresholds themselves: every cut lands exactly on
    // an axis value, which must go left (x <= threshold).
    ml::FeatureGrid grid = menu_grid(sim::MachineModel::aurora(), 134, 951);
    grid.a = na;
    grid.b = nt;
    EXPECT_EQ(mismatches(grid), 0u);
    // Below and above every threshold, infinities included.
    grid.a = {-kInf, na.front() - 1.0, na.back() + 1.0, kInf};
    grid.b = {-kInf, nt.front() - 1.0, nt.back() + 1.0, kInf};
    EXPECT_EQ(mismatches(grid), 0u);
    // One-value axes (a single row, a single column, a single cell).
    grid.a = {na[na.size() / 2]};
    grid.b = nt;
    EXPECT_EQ(mismatches(grid), 0u);
    grid.a = na;
    grid.b = {nt[nt.size() / 2]};
    EXPECT_EQ(mismatches(grid), 0u);
    grid.b = {nt.front()};
    grid.a = {na.back()};
    EXPECT_EQ(mismatches(grid), 0u);
  }
}

TEST_F(PredictGrid, FixedFeaturesOnThresholdsAndNanMatchTheWalk) {
  const auto machine = sim::MachineModel::aurora();
  for (const auto* gb : {gb_exact_, gb_hist_}) {
    for (const double o : split_thresholds(gb->stages(), data::kFeatO)) {
      EXPECT_EQ(mismatches(menu_grid(machine, o, 951)), 0u) << "O=" << o;
    }
    for (const double v : split_thresholds(gb->stages(), data::kFeatV)) {
      EXPECT_EQ(mismatches(menu_grid(machine, 134, v)), 0u) << "V=" << v;
    }
  }
  // NaN fails every <= test and goes right at each fixed-feature split,
  // exactly like predict_row.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(mismatches(menu_grid(machine, nan, 951)), 0u);
  EXPECT_EQ(mismatches(menu_grid(machine, 134, nan)), 0u);
}

TEST(PredictGridTest, ResplitsOutsideTheAncestorRangeMatchTheWalk) {
  // A fitted tree only re-splits an axis inside the range its ancestors
  // left, but a loaded artifact may not: here the left side of nodes <= 100
  // splits again at 300 (every cell left) and the right side at 50 (every
  // cell right), so both whole-axis cuts must clamp into the rectangle.
  using ml::TreeNode;
  const auto leaf = [](double v) { return TreeNode{-1, 0.0, v, -1, -1}; };
  std::vector<TreeNode> nodes = {
      TreeNode{data::kFeatNodes, 100.0, 0.0, 1, 2},
      TreeNode{data::kFeatNodes, 300.0, 0.0, 3, 4},
      TreeNode{data::kFeatNodes, 50.0, 0.0, 5, 6},
      TreeNode{data::kFeatTile, 90.0, 0.0, 7, 8},
      leaf(4.0),
      leaf(5.0),
      TreeNode{data::kFeatO, 134.0, 0.0, 9, 10},
      leaf(7.0),
      leaf(8.0),
      leaf(9.0),
      leaf(10.0)};
  std::vector<DecisionTreeRegressor> stages;
  stages.push_back(
      DecisionTreeRegressor::from_parts({}, nodes, std::vector<double>(4)));
  stages.push_back(DecisionTreeRegressor::from_parts(
      {}, {leaf(0.25)}, std::vector<double>(4)));
  const auto gb = GradientBoostingRegressor::from_parts(0.5, 1.0, stages);
  for (const double o : {100.0, 134.0, 200.0}) {
    EXPECT_EQ(grid_mismatches(gb, menu_grid(sim::MachineModel::aurora(), o,
                                            951)),
              0u)
        << "O=" << o;
  }
}

TEST_F(PredictGrid, MalformedAxesAreRejectedOnEveryPath) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const auto good = menu_grid(sim::MachineModel::aurora(), 134, 951);
  std::vector<ml::FeatureGrid> bad(6, good);
  bad[0].a = {10, 5, 20};      // unsorted
  bad[1].b = {40, 50, 50, 60};  // duplicated
  bad[2].a = {5, nan, 20};     // NaN
  bad[3].b = {nan};            // lone NaN
  bad[4].col_b = bad[4].col_a;  // one column twice
  bad[5].col_a = 4;            // past the row
  // The default materialising path (a single tree) checks the same grids.
  DecisionTreeRegressor tree;
  tree.fit(good.rows(), gb_hist_->predict(good.rows()));
  const ml::Regressor& base_path = tree;
  for (std::size_t i = 0; i < bad.size(); ++i) {
    EXPECT_THROW(gb_hist_->predict_grid(bad[i]), Error) << i;
    EXPECT_THROW(rf_->predict_grid(bad[i]), Error) << i;
    EXPECT_THROW(base_path.predict_grid(bad[i]), Error) << i;
  }
  const auto cells = base_path.predict_grid(good);
  const auto rows = tree.predict(good.rows());
  ASSERT_EQ(cells.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) EXPECT_EQ(cells[i], rows[i]);
}

// ---------- parallel search determinism ----------

TEST(ParallelSearchTest, GridSearchIsDeterministicAcrossRuns) {
  const auto s = test::make_nonlinear(240, 0.1, 13);
  GradientBoostingRegressor proto(20, 0.1, {});
  ml::ParamGrid grid;
  grid["max_depth"] = {2.0, 3.0, 4.0};
  grid["learning_rate"] = {0.05, 0.1};
  ml::SearchOptions opt;
  opt.cv_folds = 3;
  opt.refit = false;
  const auto a = ml::grid_search(proto, grid, s.x, s.y, opt);
  const auto b = ml::grid_search(proto, grid, s.x, s.y, opt);
  ASSERT_EQ(a.trials.size(), 6u);
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].value, b.trials[i].value);
    EXPECT_EQ(a.trials[i].params, b.trials[i].params);
  }
  EXPECT_EQ(a.best_params, b.best_params);
  // The winner is the best-valued trial, earliest on ties.
  double best = a.trials[0].value;
  for (const auto& t : a.trials) best = std::max(best, t.value);
  EXPECT_EQ(ml::scoring_value(a.best_cv_scores, opt.scoring), best);
}

}  // namespace
}  // namespace ccpred
