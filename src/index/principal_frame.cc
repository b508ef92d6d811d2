#include "index/principal_frame.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "core/simd/simd.h"
#include "data/pca.h"
#include "index/row_ops.h"

namespace karl::index {
namespace {

static_assert(kMaxFrameDims == core::simd::kMaxReflectDims,
              "a frame must fit the reflection kernel");

// Jacobi sweeps of the fit. The axes only have to align boxes with the
// data, not resolve the spectrum, and one sweep does that as well as
// eight (DESIGN.md §17); the frame is orthonormal whatever their number.
constexpr int kFitSweeps = 1;

// Sample rows reflected per step of the identity rule's extent fold.
constexpr size_t kChunkRows = 64;

// Folds the rows rows[0, count) of `d` values each into the extents
// `lo` and `hi`, which start as rows[0].
void FoldSampleRows(const double* const* rows, size_t count, size_t d,
                    double* lo, double* hi) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) row_ops::FoldMinMax4(rows + i, d, lo, hi);
  for (; i < count; ++i) row_ops::FoldMinMax(rows[i], d, lo, hi);
}

// Σ_j (hi_j − lo_j).
double SummedExtent(const std::vector<double>& lo,
                    const std::vector<double>& hi) {
  double total = 0.0;
  for (size_t j = 0; j < lo.size(); ++j) total += hi[j] - lo[j];
  return total;
}

// The centred scatter matrix of `d` columns of `stride` values each,
// zero-padded to whole groups of four vectors: entry (j, k) is the dot
// product of columns j and k, summed in four vectors of partial sums
// joined as (p0 + p1) + (p2 + p3), then its two lanes added. The code,
// and so the bits, do not depend on the SIMD tier. Entries (j, k) and
// (j, k + 1) share a pass over column j, which loads it once for both.
std::vector<double> Scatter(const std::vector<double>& columns, size_t d,
                            size_t stride) {
  using row_ops::Double2;
  constexpr size_t kStep = 4 * row_ops::kLanes;
  const auto join = [](const Double2* part) {
    const Double2 sum = (part[0] + part[1]) + (part[2] + part[3]);
    return sum[0] + sum[1];
  };
  std::vector<double> scatter(d * d);
  for (size_t j = 0; j < d; ++j) {
    const double* a = columns.data() + j * stride;
    for (size_t k = j; k < d; k += 2) {
      const double* b0 = columns.data() + k * stride;
      // A last entry without a partner is paired with itself.
      const double* b1 = k + 1 < d ? b0 + stride : b0;
      Double2 p0[4] = {};
      Double2 p1[4] = {};
      for (size_t i = 0; i < stride; i += kStep) {
        for (size_t p = 0; p < 4; ++p) {
          const size_t at = i + p * row_ops::kLanes;
          const Double2 x = row_ops::Load(a + at);
          p0[p] += x * row_ops::Load(b0 + at);
          p1[p] += x * row_ops::Load(b1 + at);
        }
      }
      scatter[j * d + k] = scatter[k * d + j] = join(p0);
      if (k + 1 < d) {
        scatter[j * d + k + 1] = scatter[(k + 1) * d + j] = join(p1);
      }
    }
  }
  return scatter;
}

}  // namespace

bool TakesPrincipalFrame(IndexKind kind, size_t d) {
  return kind == IndexKind::kKdTree && d >= 2 && d <= kMaxFrameDims;
}

Frame FitPrincipalFrame(const data::Matrix& points) {
  const size_t n = points.rows();
  const size_t d = points.cols();
  Frame identity_frame;
  if (n == 0 || d < 2 || d > kMaxFrameDims) return identity_frame;

  // Every ⌊n/m⌋-th row or so: row ⌊i·n/m⌋ for i < m, read in place.
  const size_t m = std::min(n, kFrameSampleRows);
  std::vector<const double*> sample(m);
  for (size_t i = 0; i < m; ++i) sample[i] = points.Row(i * n / m).data();

  // One pass over the sample checks it, sums the mean and folds the
  // extents in the data frame.
  std::vector<double> mean(d, 0.0);
  std::vector<double> lo(sample[0], sample[0] + d);
  std::vector<double> hi = lo;
  uint64_t bits = 0;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < d; ++j) {
      bits |= NonFiniteBits(sample[i][j]);
      mean[j] += sample[i][j];
    }
  }
  if ((bits >> 63) != 0) return identity_frame;
  FoldSampleRows(sample.data(), m, d, lo.data(), hi.data());
  const double before = SummedExtent(lo, hi);
  for (double& v : mean) v /= static_cast<double>(m);

  // The centred scatter matrix (the covariance times m: the factor
  // changes no axis), from the centred sample stored column by column.
  constexpr size_t kStep = 4 * row_ops::kLanes;
  const size_t stride = (m + kStep - 1) / kStep * kStep;
  std::vector<double> columns(d * stride, 0.0);
  for (size_t j = 0; j < d; ++j) {
    double* column = columns.data() + j * stride;
    for (size_t i = 0; i < m; ++i) column[i] = sample[i][j] - mean[j];
  }

  std::vector<double> variances;
  std::vector<double> axes;
  data::JacobiEigenSymmetric(Scatter(columns, d, stride), d, &variances,
                             &axes, kFitSweeps);
  std::vector<size_t> order(d);
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return variances[a] > variances[b];
  });

  // Reflection r maps e_r to the r-th axis as the reflections before it
  // left it: with w = H_{r−1}⋯H_0·u_r, which is orthogonal to
  // e_0 … e_{r−1}, v_r = (w − e_r)/‖w − e_r‖. The axis's sign is free, so
  // it is picked to make w_r <= 0 and so ‖w − e_r‖ >= 1. (A scatter that
  // overflowed gives NaN axes, and the identity rule below refuses them.)
  const size_t k =
      std::min(kFrameAxes, (d + kDimsPerFrameAxis - 1) / kDimsPerFrameAxis);
  Frame frame;
  frame.reflectors.assign(k * d, 0.0);
  std::vector<double> w(d);
  for (size_t r = 0; r < k; ++r) {
    for (size_t j = 0; j < d; ++j) w[j] = axes[j * d + order[r]];
    if (r > 0) {
      std::vector<double> reflected(d);
      core::simd::ReflectRows({frame.reflectors.data(), r * d}, d, w.data(),
                              1, reflected.data());
      w = std::move(reflected);
    }
    if (w[r] > 0.0) {
      for (double& x : w) x = -x;
    }
    w[r] -= 1.0;
    double norm = 0.0;
    for (const double x : w) norm += x * x;
    norm = std::sqrt(norm);
    for (size_t j = 0; j < d; ++j) frame.reflectors[r * d + j] = w[j] / norm;
  }

  // The identity rule: keep the frame only if the sample's boxes shrink
  // in it. The sample is gathered and reflected a chunk at a time.
  std::vector<double> gathered(kChunkRows * d);
  std::vector<double> reflected(kChunkRows * d);
  std::vector<const double*> chunk_rows(kChunkRows);
  for (size_t first = 0; first < m; first += kChunkRows) {
    const size_t count = std::min(kChunkRows, m - first);
    for (size_t i = 0; i < count; ++i) {
      std::copy(sample[first + i], sample[first + i] + d,
                gathered.begin() + i * d);
      chunk_rows[i] = reflected.data() + i * d;
    }
    core::simd::ReflectRows(frame.reflectors, d, gathered.data(), count,
                            reflected.data());
    if (first == 0) {
      lo.assign(reflected.begin(), reflected.begin() + d);
      hi = lo;
    }
    FoldSampleRows(chunk_rows.data(), count, d, lo.data(), hi.data());
  }
  const double after = SummedExtent(lo, hi);
  frame.extent_ratio = before > 0.0 ? after / before : 1.0;
  if (!(frame.extent_ratio < 1.0)) {
    if (std::isfinite(frame.extent_ratio)) {
      identity_frame.extent_ratio = frame.extent_ratio;
    }
    return identity_frame;
  }
  return frame;
}

std::string_view FrameName(const TreeIndex& tree) {
  return tree.frame().empty() ? "identity" : "principal";
}

double FrameReflectorNormError(std::span<const double> v) {
  double sq = 0.0;
  for (const double x : v) sq += x * x;
  return std::abs(sq - 1.0);
}

double FrameReflectorNormTolerance(size_t d) {
  return 8.0 * static_cast<double>(d) * std::numeric_limits<double>::epsilon();
}

}  // namespace karl::index
