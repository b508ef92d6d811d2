#include "index/bounding_ball.h"

#include <cmath>

#include "util/check.h"
#include "util/math_util.h"

namespace karl::index {

BoundingBall BoundingBall::FitRange(const data::Matrix& points, size_t begin,
                                    size_t end) {
  KARL_CHECK(begin < end && end <= points.rows())
      << ": bad point range [" << begin << ", " << end << ") of "
      << points.rows();
  BoundingBall ball;
  const size_t d = points.cols();
  ball.center_.assign(d, 0.0);
  for (size_t i = begin; i < end; ++i) {
    const auto row = points.Row(i);
    for (size_t j = 0; j < d; ++j) ball.center_[j] += row[j];
  }
  const double inv_n = 1.0 / static_cast<double>(end - begin);
  for (auto& c : ball.center_) c *= inv_n;

  double max_sq = 0.0;
  for (size_t i = begin; i < end; ++i) {
    max_sq = std::max(
        max_sq, util::SquaredDistance(points.Row(i), ball.center_));
  }
  ball.radius_ = std::sqrt(max_sq);
  return ball;
}

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
