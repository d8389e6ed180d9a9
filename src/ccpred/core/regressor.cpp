#include "ccpred/core/regressor.hpp"

#include <algorithm>
#include <cmath>

namespace ccpred::ml {

namespace {

void check_axis(const std::vector<double>& axis, const char* name) {
  for (std::size_t i = 0; i < axis.size(); ++i) {
    CCPRED_CHECK_MSG(!std::isnan(axis[i]),
                     "grid axis " << name << " holds NaN at " << i);
    CCPRED_CHECK_MSG(i == 0 || axis[i - 1] < axis[i],
                     "grid axis " << name
                                  << " must be strictly increasing (index "
                                  << i << ")");
  }
}

}  // namespace

linalg::Matrix FeatureGrid::rows() const {
  linalg::Matrix x(size(), base.size());
  std::size_t r = 0;
  for (const double va : a) {
    for (const double vb : b) {
      double* row = x.row_ptr(r++);
      std::copy(base.begin(), base.end(), row);
      row[col_a] = va;
      row[col_b] = vb;
    }
  }
  return x;
}

void check_grid(const FeatureGrid& grid) {
  CCPRED_CHECK_MSG(grid.col_a != grid.col_b &&
                       grid.col_a < grid.base.size() &&
                       grid.col_b < grid.base.size(),
                   "grid axis columns " << grid.col_a << " and " << grid.col_b
                                        << " must be distinct columns of a "
                                        << grid.base.size()
                                        << "-feature row");
  check_axis(grid.a, "a");
  check_axis(grid.b, "b");
}

}  // namespace ccpred::ml
