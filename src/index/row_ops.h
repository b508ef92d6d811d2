// Element-wise row operations shared by the index builders. They are
// written on a two-double vector-extension type, so GCC and Clang run
// them a vector at a time on any x86-64 target (SSE2), while each
// element gets exactly the arithmetic of the plain loop: the same
// operations in the same order, so the same bits.

#ifndef KARL_INDEX_ROW_OPS_H_
#define KARL_INDEX_ROW_OPS_H_

#include <algorithm>
#include <cstddef>
#include <cstring>

namespace karl::index::row_ops {

using Double2 = double __attribute__((vector_size(16)));
inline constexpr size_t kLanes = 2;

inline Double2 Load(const double* p) {
  Double2 v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline void Store(double* p, Double2 v) { std::memcpy(p, &v, sizeof(v)); }

/// sums[j] += w · row[j] for j < d.
inline void AddScaled(double w, const double* row, size_t d, double* sums) {
  size_t j = 0;
  for (; j + kLanes <= d; j += kLanes) {
    Store(sums + j, Load(sums + j) + w * Load(row + j));
  }
  for (; j < d; ++j) sums[j] += w * row[j];
}

/// sums[j] += row[j] for j < d.
inline void Add(const double* row, size_t d, double* sums) {
  size_t j = 0;
  for (; j + kLanes <= d; j += kLanes) {
    Store(sums + j, Load(sums + j) + Load(row + j));
  }
  for (; j < d; ++j) sums[j] += row[j];
}

inline Double2 Min(Double2 a, Double2 b) { return b < a ? b : a; }
inline Double2 Max(Double2 a, Double2 b) { return a < b ? b : a; }

/// lo[j] = std::min(lo[j], row[j]) and hi[j] = std::max(hi[j], row[j])
/// for j < d: of two equal values the first is kept, as std::min and
/// std::max keep it, so even a signed zero comes out the same.
inline void FoldMinMax(const double* row, size_t d, double* lo, double* hi) {
  size_t j = 0;
  for (; j + kLanes <= d; j += kLanes) {
    const Double2 v = Load(row + j);
    const Double2 l = Load(lo + j);
    const Double2 h = Load(hi + j);
    Store(lo + j, Min(l, v));
    Store(hi + j, Max(h, v));
  }
  for (; j < d; ++j) {
    lo[j] = std::min(lo[j], row[j]);
    hi[j] = std::max(hi[j], row[j]);
  }
}

/// FoldMinMax of rows[0] to rows[3] in that order, with lo and hi read
/// and written once for all four, so the chain of dependent updates
/// through them is a quarter as long. Min and Max keep their left
/// operand on a tie, and the left operand always holds the earlier
/// rows, so the first of equal values is kept as FoldMinMax keeps it:
/// the same bits, signed zeros too.
inline void FoldMinMax4(const double* const rows[4], size_t d, double* lo,
                        double* hi) {
  size_t j = 0;
  for (; j + kLanes <= d; j += kLanes) {
    const Double2 a = Load(rows[0] + j);
    const Double2 b = Load(rows[1] + j);
    const Double2 c = Load(rows[2] + j);
    const Double2 e = Load(rows[3] + j);
    Store(lo + j, Min(Load(lo + j), Min(Min(a, b), Min(c, e))));
    Store(hi + j, Max(Load(hi + j), Max(Max(a, b), Max(c, e))));
  }
  for (; j < d; ++j) {
    for (size_t r = 0; r < 4; ++r) {
      lo[j] = std::min(lo[j], rows[r][j]);
      hi[j] = std::max(hi[j], rows[r][j]);
    }
  }
}

}  // namespace karl::index::row_ops

#endif  // KARL_INDEX_ROW_OPS_H_
