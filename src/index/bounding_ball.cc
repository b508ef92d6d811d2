#include "index/bounding_ball.h"

#include <algorithm>
#include <cmath>

#include "util/math_util.h"

namespace karl::index {

void BoundingBall::DistanceBoundsFlat(std::span<const double> center,
                                      double radius,
                                      std::span<const double> q,
                                      double* min_sq, double* max_sq) {
  const double dist = std::sqrt(util::SquaredDistance(q, center));
  const double min_dist = std::max(0.0, dist - radius);
  const double max_dist = dist + radius;
  *min_sq = min_dist * min_dist;
  *max_sq = max_dist * max_dist;
}

void BoundingBall::InnerProductBoundsFlat(std::span<const double> center,
                                          double radius,
                                          std::span<const double> q,
                                          double* ip_min, double* ip_max) {
  // q·p = q·c + q·(p-c); |q·(p-c)| <= ||q||·r by Cauchy–Schwarz.
  const double qc = util::Dot(q, center);
  const double slack = std::sqrt(util::SquaredNorm(q)) * radius;
  *ip_min = qc - slack;
  *ip_max = qc + slack;
}

}  // namespace karl::index
