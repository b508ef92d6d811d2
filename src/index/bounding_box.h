// Axis-aligned bounding rectangle (paper Definition 2) with the
// inner-product bound KARL's pruning relies on.

#ifndef KARL_INDEX_BOUNDING_BOX_H_
#define KARL_INDEX_BOUNDING_BOX_H_

#include <span>
#include <vector>

#include "data/matrix.h"

namespace karl::index {

/// Axis-aligned bounding rectangle over a point set.
class BoundingBox {
 public:
  /// Constructs an empty (invalid) box; call FitRange before use.
  BoundingBox() = default;

  /// Fits the tightest box over rows [begin, end) of `points`.
  static BoundingBox FitRange(const data::Matrix& points, size_t begin,
                              size_t end);

  /// [IP_min, IP_max]: range of the inner product q·p over p in the box
  /// given by its raw corner arrays — the representation the trees keep
  /// their per-node geometry in (packed, possibly memory-mapped). The
  /// trees' box distances go through core::simd::BoxGeometry.
  static void InnerProductBoundsFlat(std::span<const double> lower,
                                     std::span<const double> upper,
                                     std::span<const double> q,
                                     double* ip_min, double* ip_max);

  /// Lower corner (per-dimension minima).
  const std::vector<double>& lower() const { return lower_; }

  /// Upper corner (per-dimension maxima).
  const std::vector<double>& upper() const { return upper_; }

 private:
  std::vector<double> lower_;
  std::vector<double> upper_;
};

}  // namespace karl::index

#endif  // KARL_INDEX_BOUNDING_BOX_H_
