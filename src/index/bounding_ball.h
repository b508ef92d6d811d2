// Bounding ball (centre + radius) — the node region of the ball-tree
// [Uhlmann'91, Moore'00], with the distance and inner-product bounds.

#ifndef KARL_INDEX_BOUNDING_BALL_H_
#define KARL_INDEX_BOUNDING_BALL_H_

#include <span>
#include <vector>

#include "data/matrix.h"

namespace karl::index {

/// Minimal enclosing ball approximation (centroid-centred) for a point set.
class BoundingBall {
 public:
  /// Constructs an empty (invalid) ball; call FitRange before use.
  BoundingBall() = default;

  /// Fits a ball centred at the centroid of rows [begin, end), with radius
  /// the maximum centroid distance (exact cover, not minimal).
  static BoundingBall FitRange(const data::Matrix& points, size_t begin,
                               size_t end);

  /// Bounds over the ball given by a raw (centre, radius) pair — the
  /// representation the ball-tree keeps its per-node geometry in
  /// (packed, possibly memory-mapped). DistanceBoundsFlat returns
  /// mindist² = max(0, ||q-c|| - r)² and maxdist² = (||q-c|| + r)² from
  /// one centre-distance evaluation; InnerProductBoundsFlat returns
  /// [IP_min, IP_max] = q·c ∓ r·||q||.
  static void DistanceBoundsFlat(std::span<const double> center,
                                 double radius, std::span<const double> q,
                                 double* min_sq, double* max_sq);
  static void InnerProductBoundsFlat(std::span<const double> center,
                                     double radius,
                                     std::span<const double> q,
                                     double* ip_min, double* ip_max);

  /// Ball centre.
  const std::vector<double>& center() const { return center_; }

  /// Ball radius.
  double radius() const { return radius_; }

 private:
  std::vector<double> center_;
  double radius_ = 0.0;
};

}  // namespace karl::index

#endif  // KARL_INDEX_BOUNDING_BALL_H_
