#include "util/math_util.h"

#include <cmath>

#include "util/check.h"

namespace karl::util {

double Dot(std::span<const double> a, std::span<const double> b) {
  KARL_DCHECK(a.size() == b.size())
      << ": Dot of mismatched lengths " << a.size() << " vs " << b.size();
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double SquaredNorm(std::span<const double> a) {
  double s = 0.0;
  for (const double v : a) s += v * v;
  return s;
}

double SquaredDistance(std::span<const double> a, std::span<const double> b) {
  KARL_DCHECK(a.size() == b.size())
      << ": SquaredDistance of mismatched lengths " << a.size() << " vs "
      << b.size();
  double s = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    s += diff * diff;
  }
  return s;
}

double KahanSum(std::span<const double> values) {
  KahanAccumulator acc;
  for (const double v : values) acc.Add(v);
  return acc.Total();
}

double Mean(std::span<const double> values) {
  if (values.empty()) return 0.0;
  return KahanSum(values) / static_cast<double>(values.size());
}

double StdDev(std::span<const double> values) {
  if (values.size() < 1) return 0.0;
  const double mu = Mean(values);
  KahanAccumulator acc;
  for (const double v : values) acc.Add((v - mu) * (v - mu));
  return std::sqrt(acc.Total() / static_cast<double>(values.size()));
}

}  // namespace karl::util
