#pragma once

/// \file regressor.hpp
/// The common interface of all ccpred regression models — the C++
/// counterpart of the scikit-learn estimator protocol the paper relies on.

#include <cstddef>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ccpred/common/error.hpp"
#include "ccpred/linalg/matrix.hpp"

namespace ccpred::ml {

/// Hyper-parameter assignment. Numeric-valued (integers are stored as
/// doubles and rounded by the consuming model), which keeps grid / random /
/// Bayesian search uniform across models.
using ParamMap = std::map<std::string, double>;

/// A grid of feature rows that differ in two columns only: cell (i, j) is
/// `base` with column `col_a` set to a[i] and column `col_b` set to b[j].
/// Cells are numbered row-major, `a` outer — the order of the advisor's
/// node-menu x tile-menu sweep. The values `base` holds at the two axis
/// columns are ignored.
struct FeatureGrid {
  std::vector<double> base;
  std::size_t col_a = 0;
  std::vector<double> a;
  std::size_t col_b = 1;
  std::vector<double> b;

  std::size_t size() const { return a.size() * b.size(); }

  /// The grid as one feature row per cell, in cell order.
  linalg::Matrix rows() const;
};

/// Throws ccpred::Error unless the axis columns are distinct columns of
/// `base` and both axes are strictly increasing and NaN-free — the shape
/// that lets a tree model cut an axis at one binary-searched index.
void check_grid(const FeatureGrid& grid);

/// Abstract regression model: fit on (X, y), predict on X'.
class Regressor {
 public:
  virtual ~Regressor() = default;

  /// Trains on `x` (n x d) and targets `y` (length n). May be called again
  /// to re-train from scratch.
  virtual void fit(const linalg::Matrix& x, const std::vector<double>& y) = 0;

  /// Predicts targets for each row of `x`. Requires fit() first.
  virtual std::vector<double> predict(const linalg::Matrix& x) const = 0;

  /// Predicts every cell of `grid` (checked by check_grid), bit for bit
  /// equal to predict(grid.rows()). The default does exactly that; tree
  /// ensembles override it with one descent per tree for the whole grid.
  virtual std::vector<double> predict_grid(const FeatureGrid& grid) const {
    check_grid(grid);
    return predict(grid.rows());
  }

  /// Fresh unfitted copy with identical hyper-parameters.
  virtual std::unique_ptr<Regressor> clone() const = 0;

  /// Short model identifier ("GB", "KR", ...).
  virtual const std::string& name() const = 0;

  /// Applies hyper-parameters by key; unknown keys throw ccpred::Error so
  /// search-space typos fail loudly.
  virtual void set_params(const ParamMap& params) = 0;

  /// True after a successful fit().
  virtual bool is_fitted() const = 0;

  /// True when the model can absorb new rows incrementally via update()
  /// instead of refitting from scratch — the active-learning loop uses this
  /// to reuse factorizations between rounds (currently the GP).
  virtual bool supports_incremental_update() const { return false; }

  /// Incrementally extends a fitted model with newly labeled rows. Only
  /// valid when supports_incremental_update() is true; the default throws.
  virtual void update(const linalg::Matrix& /*x_new*/,
                      const std::vector<double>& /*y_new*/) {
    throw Error(name() + ": incremental update not supported");
  }

  /// Convenience: prediction for a single feature row.
  double predict_one(const std::vector<double>& row) const {
    linalg::Matrix x(1, row.size());
    for (std::size_t c = 0; c < row.size(); ++c) x(0, c) = row[c];
    return predict(x).front();
  }
};

/// A regressor that also reports predictive uncertainty — needed by the
/// uncertainty-sampling active-learning strategy (Algorithm 1).
class UncertaintyRegressor : public Regressor {
 public:
  /// Predictive mean and standard deviation for each row of `x`.
  virtual void predict_with_std(const linalg::Matrix& x,
                                std::vector<double>& mean,
                                std::vector<double>& std) const = 0;
};

}  // namespace ccpred::ml
