#include "index/bounding_box.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace karl::index {

BoundingBox BoundingBox::Fit(const data::Matrix& points,
                             std::span<const size_t> row_indices) {
  KARL_CHECK(!row_indices.empty())
      << ": bounding box needs at least one point";
  BoundingBox box;
  const size_t d = points.cols();
  box.lower_.assign(d, std::numeric_limits<double>::infinity());
  box.upper_.assign(d, -std::numeric_limits<double>::infinity());
  for (const size_t i : row_indices) {
    const auto row = points.Row(i);
    for (size_t j = 0; j < d; ++j) {
      box.lower_[j] = std::min(box.lower_[j], row[j]);
      box.upper_[j] = std::max(box.upper_[j], row[j]);
    }
  }
  return box;
}

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

double BoundingBox::MinSquaredDistance(std::span<const double> q) const {
  KARL_DCHECK(q.size() == lower_.size())
      << ": query has dimension " << q.size() << ", box has "
      << lower_.size();
  double s = 0.0;
  for (size_t j = 0; j < q.size(); ++j) {
    double diff = 0.0;
    if (q[j] < lower_[j]) {
      diff = lower_[j] - q[j];
    } else if (q[j] > upper_[j]) {
      diff = q[j] - upper_[j];
    }
    s += diff * diff;
  }
  return s;
}

double BoundingBox::MaxSquaredDistance(std::span<const double> q) const {
  KARL_DCHECK(q.size() == lower_.size())
      << ": query has dimension " << q.size() << ", box has "
      << lower_.size();
  double s = 0.0;
  for (size_t j = 0; j < q.size(); ++j) {
    // Farthest corner per dimension.
    const double to_lower = q[j] - lower_[j];
    const double to_upper = upper_[j] - q[j];
    const double diff = std::max(std::abs(to_lower), std::abs(to_upper));
    s += diff * diff;
  }
  return s;
}

void BoundingBox::InnerProductBounds(std::span<const double> q,
                                     double* ip_min, double* ip_max) const {
  InnerProductBoundsFlat(lower_, upper_, q, ip_min, ip_max);
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

size_t BoundingBox::WidestDimension() const {
  size_t best = 0;
  double best_extent = -1.0;
  for (size_t j = 0; j < lower_.size(); ++j) {
    const double extent = upper_[j] - lower_[j];
    if (extent > best_extent) {
      best_extent = extent;
      best = j;
    }
  }
  return best;
}

bool BoundingBox::Contains(std::span<const double> p) const {
  KARL_DCHECK(p.size() == lower_.size())
      << ": point has dimension " << p.size() << ", box has "
      << lower_.size();
  for (size_t j = 0; j < p.size(); ++j) {
    if (p[j] < lower_[j] || p[j] > upper_[j]) return false;
  }
  return true;
}

}  // namespace karl::index
