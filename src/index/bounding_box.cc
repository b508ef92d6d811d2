#include "index/bounding_box.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace karl::index {

BoundingBox BoundingBox::FitRange(const data::Matrix& points, size_t begin,
                                  size_t end) {
  KARL_CHECK(begin < end && end <= points.rows())
      << ": bad point range [" << begin << ", " << end << ") of "
      << points.rows();
  BoundingBox box;
  const size_t d = points.cols();
  box.lower_.assign(d, std::numeric_limits<double>::infinity());
  box.upper_.assign(d, -std::numeric_limits<double>::infinity());
  for (size_t i = begin; i < end; ++i) {
    const auto row = points.Row(i);
    for (size_t j = 0; j < d; ++j) {
      box.lower_[j] = std::min(box.lower_[j], row[j]);
      box.upper_[j] = std::max(box.upper_[j], row[j]);
    }
  }
  return box;
}

void BoundingBox::InnerProductBoundsFlat(std::span<const double> lower,
                                         std::span<const double> upper,
                                         std::span<const double> q,
                                         double* ip_min, double* ip_max) {
  KARL_DCHECK(q.size() == lower.size() && q.size() == upper.size())
      << ": query has dimension " << q.size() << ", box has "
      << lower.size();
  double lo = 0.0;
  double hi = 0.0;
  for (size_t j = 0; j < q.size(); ++j) {
    // q_j * p_j over p_j in [l_j, u_j]: extremes at the interval ends,
    // which end depends on the sign of q_j.
    const double a = q[j] * lower[j];
    const double b = q[j] * upper[j];
    lo += std::min(a, b);
    hi += std::max(a, b);
  }
  *ip_min = lo;
  *ip_max = hi;
}

}  // namespace karl::index
