// Axis-aligned bounding rectangle (paper Definition 2) with the distance
// and inner-product bounds KARL's pruning relies on.

#ifndef KARL_INDEX_BOUNDING_BOX_H_
#define KARL_INDEX_BOUNDING_BOX_H_

#include <span>
#include <vector>

#include "data/matrix.h"

namespace karl::index {

/// Axis-aligned bounding rectangle over a point set.
class BoundingBox {
 public:
  /// Constructs an empty (invalid) box; call Fit before use.
  BoundingBox() = default;

  /// Fits the tightest box over the given rows of `points`.
  static BoundingBox Fit(const data::Matrix& points,
                         std::span<const size_t> row_indices);

  /// Fits the tightest box over rows [begin, end) of `points`.
  static BoundingBox FitRange(const data::Matrix& points, size_t begin,
                              size_t end);

  /// mindist(q, R)^2 — squared distance from q to the nearest box point.
  double MinSquaredDistance(std::span<const double> q) const;

  /// maxdist(q, R)^2 — squared distance from q to the farthest box point.
  double MaxSquaredDistance(std::span<const double> q) const;

  /// [IP_min, IP_max]: range of the inner product q·p over p in the box.
  void InnerProductBounds(std::span<const double> q, double* ip_min,
                          double* ip_max) const;

  /// Flat-span variant of InnerProductBounds, operating on raw corner
  /// arrays — the representation the trees keep their per-node geometry
  /// in (packed, possibly memory-mapped). The member function above
  /// delegates here. The trees' box distances go through
  /// core::simd::BoxGeometry.
  static void InnerProductBoundsFlat(std::span<const double> lower,
                                     std::span<const double> upper,
                                     std::span<const double> q,
                                     double* ip_min, double* ip_max);

  /// Lower corner (per-dimension minima).
  const std::vector<double>& lower() const { return lower_; }

  /// Upper corner (per-dimension maxima).
  const std::vector<double>& upper() const { return upper_; }

  /// Dimensionality; 0 for a default-constructed box.
  size_t dimensions() const { return lower_.size(); }

  /// Index of the dimension with the largest extent (for kd splits).
  size_t WidestDimension() const;

  /// True iff `p` lies inside the box (inclusive).
  bool Contains(std::span<const double> p) const;

 private:
  std::vector<double> lower_;
  std::vector<double> upper_;
};

}  // namespace karl::index

#endif  // KARL_INDEX_BOUNDING_BOX_H_
