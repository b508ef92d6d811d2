#include "index/bounding_box.h"

#include <algorithm>

#include "util/check.h"

namespace karl::index {

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
