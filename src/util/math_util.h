// Small numeric helpers shared across modules: dot products, squared
// distances, numerically stable summation, and simple statistics.

#ifndef KARL_UTIL_MATH_UTIL_H_
#define KARL_UTIL_MATH_UTIL_H_

#include <cstddef>
#include <span>
#include <vector>

namespace karl::util {

/// Dot product of two equal-length vectors.
double Dot(std::span<const double> a, std::span<const double> b);

/// Squared Euclidean norm ||a||^2.
double SquaredNorm(std::span<const double> a);

/// Squared Euclidean distance ||a - b||^2.
double SquaredDistance(std::span<const double> a, std::span<const double> b);

/// Kahan-compensated sum of `values`; stable for long low-magnitude tails.
double KahanSum(std::span<const double> values);

/// Running Kahan accumulator for incremental stable summation.
class KahanAccumulator {
 public:
  /// Adds `x` to the running sum with error compensation.
  void Add(double x) {
    const double y = x - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }

  /// The compensated running total.
  double Total() const { return sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

/// Arithmetic mean; returns 0 for an empty span.
double Mean(std::span<const double> values);

/// Population standard deviation; returns 0 for spans of size < 1.
double StdDev(std::span<const double> values);

/// Clamps x to [lo, hi].
inline double Clamp(double x, double lo, double hi) {
  if (x < lo) return lo;
  if (x > hi) return hi;
  return x;
}

}  // namespace karl::util

#endif  // KARL_UTIL_MATH_UTIL_H_
