// Axis-aligned bounding rectangle (paper Definition 2) with the
// inner-product bound KARL's pruning relies on.

#ifndef KARL_INDEX_BOUNDING_BOX_H_
#define KARL_INDEX_BOUNDING_BOX_H_

#include <span>

namespace karl::index {

/// Axis-aligned bounding rectangle over a point set, given by its lower
/// and upper corners (the kd-tree fits them while it builds).
class BoundingBox {
 public:
  /// [IP_min, IP_max]: range of the inner product q·p over p in the box
  /// given by its raw corner arrays — the representation the trees keep
  /// their per-node geometry in (packed, possibly memory-mapped). The
  /// trees' box distances go through core::simd::BoxGeometry.
  static void InnerProductBoundsFlat(std::span<const double> lower,
                                     std::span<const double> upper,
                                     std::span<const double> q,
                                     double* ip_min, double* ip_max);
};

}  // namespace karl::index

#endif  // KARL_INDEX_BOUNDING_BOX_H_
