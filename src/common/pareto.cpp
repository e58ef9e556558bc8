#include "common/pareto.h"

#include <algorithm>

#include "common/error.h"

namespace dpipe {

namespace {

bool dominates(const ParetoPoint& a, const ParetoPoint& b) {
  return a.w <= b.w && a.y <= b.y;
}

}  // namespace

bool ParetoFrontier::insert(ParetoPoint p) {
  for (const ParetoPoint& q : points_) {
    if (dominates(q, p)) {
      return false;
    }
  }
  std::erase_if(points_, [&](const ParetoPoint& q) { return dominates(p, q); });
  points_.push_back(p);
  return true;
}

ParetoPoint ParetoFrontier::best(double coeff_w) const {
  DPIPE_ENSURE(!points_.empty(), "ParetoFrontier::best on empty frontier");
  return *std::min_element(points_.begin(), points_.end(),
                           [&](const ParetoPoint& a, const ParetoPoint& b) {
                             return coeff_w * a.w + a.y < coeff_w * b.w + b.y;
                           });
}

}  // namespace dpipe
