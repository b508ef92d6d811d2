// Bounding ball (centre + radius) — the node region of the ball-tree
// [Uhlmann'91, Moore'00], with the distance and inner-product bounds.

#ifndef KARL_INDEX_BOUNDING_BALL_H_
#define KARL_INDEX_BOUNDING_BALL_H_

#include <span>

namespace karl::index {

/// Bounding ball (centre, radius) of a point set; the ball-tree centres
/// each node's ball at the node's centroid, radius the farthest point.
class BoundingBall {
 public:
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
};

}  // namespace karl::index

#endif  // KARL_INDEX_BOUNDING_BALL_H_
