// Blocked point storage in two 32-bit planes: the only copy of a tree's
// points and weights, read by every SIMD tier (see DESIGN.md §14).
//
// A row-major point matrix is great for pointer-chased per-row access but
// hostile to SIMD: gathering one dimension across 16 points touches 16
// cache lines. SoaLeafBlocks stores the tree-permuted points as groups of
// kGroupRows rows, dimension-major inside each group, and splits every
// fp64 value x into two 32-bit words:
//
//   hi  x truncated toward zero to fp32 (its sign, exponent and top 23
//       mantissa bits);
//   lo  the 29 mantissa bits the truncation drops.
//
// A group is its hi plane then its lo plane, each (dims + 1) rows of
// kGroupRows words; row j < dims holds dimension j and row dims holds
// the weights:
//
//   planes[(group·2 + plane)·(dims + 1)·16 + row·16 + lane]
//
// so one AVX-512 load reads the 16 lanes of one dimension as fp32, and
// the narrow leaf pass reads the hi planes alone: half the bytes. The
// exact pass rebuilds each double from both words bit for bit: widening
// hi to fp64 is exact, and lo fills the mantissa bits below it. That
// needs |x| < 2^128 (fp32's exponent range), which BuildFromRows' caller
// checks; values with 0 < |x| < 2^-126 (below fp32's normal range) are
// stored as ±0. A group takes as many bytes as its rows took as fp64
// values, so the planes cost what the fp64 blocks did, save the padding
// of one group. Padding rows past the last real row carry weight 0 and
// coordinate 0, which makes every kernel contribution of a pad lane
// exactly 0 without branches.
//
// The layout is blocked over the ENTIRE permuted array, not per leaf:
// any node range [begin, end) maps onto whole groups plus at most two
// partial ones, handled with masked weights. A newly built kd tree
// splits on multiples of kBlockPoints (index/kd_tree.h), so its ranges
// start on a group or halfway into one.
//
// Storage duality, as for TreeIndex: the planes are either *built*
// (BuildFromRows — owned) or *attached* (Attach — a non-owning view into
// caller memory, typically the planes section of an mmap-ed snapshot;
// see registry/snapshot.h). Readers go through one span either way.

#ifndef KARL_CORE_SIMD_SOA_BLOCK_H_
#define KARL_CORE_SIMD_SOA_BLOCK_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/status.h"

namespace karl::core::simd {

/// std::allocator, except that a value-initialised element is left
/// uninitialised: a vector the caller then writes in full is not
/// zero-filled first.
template <typename T>
struct NoInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = NoInitAllocator<U>;
  };
  NoInitAllocator() = default;
  template <typename U>
  NoInitAllocator(const NoInitAllocator<U>&) noexcept {}
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }
};

/// Storage for blocked points: row-major doubles while a tree is built,
/// the planes' 32-bit words once BuildFromRows has split them.
using BlockStorage = std::vector<double, NoInitAllocator<double>>;

/// The smallest magnitude the planes keep: 2^-126, fp32's least normal
/// value. Smaller non-zero values are stored as ±0.
inline constexpr double kPlaneMinNormal = 0x1p-126;
/// Magnitudes at or above 2^128 cannot be stored.
inline constexpr double kPlaneLimit = 0x1p128;

/// `x` as the planes store it: ±0 if 0 < |x| < kPlaneMinNormal, else x.
inline double FlushToPlane(double x) {
  return x > -kPlaneMinNormal && x < kPlaneMinNormal ? x * 0.0 : x;
}

/// Splits FlushToPlane(x) (|x| < kPlaneLimit) into its hi and lo words.
inline void SplitToPlanes(double x, uint32_t* hi, uint32_t* lo) {
  const uint64_t bits = std::bit_cast<uint64_t>(x);
  const uint32_t sign = static_cast<uint32_t>(bits >> 32) & 0x80000000u;
  // Below 2^-126 both words are ±0 (the shift drops the sign, so this
  // compares magnitudes).
  const bool tiny = (bits << 1) < (uint64_t{1023 - 126} << 53);
  // Bits 29..60 of x are fp64's top 23 mantissa bits under the low 9 of
  // its 11 exponent bits. A normal fp32's exponent is fp64's less
  // 1023 − 127, in [1, 254] on [2^-126, 2^128): taking that off the
  // 9-bit field modulo 2^9 leaves it, with bit 31 clear for the sign.
  constexpr uint32_t kRebias =
      static_cast<uint32_t>(uint64_t{1023 - 127} << 23);
  const uint32_t normal =
      (static_cast<uint32_t>(bits >> 29) - kRebias) | sign;
  *hi = tiny ? sign : normal;
  *lo = tiny ? 0u : static_cast<uint32_t>(bits) & 0x1FFFFFFFu;
}

/// The double SplitToPlanes split into `hi` and `lo`.
inline double JoinPlanes(uint32_t hi, uint32_t lo) {
  const double wide = static_cast<double>(std::bit_cast<float>(hi));
  return std::bit_cast<double>(std::bit_cast<uint64_t>(wide) | lo);
}

/// Dimension-major points + weights in hi/lo planes, in tree-permuted
/// order.
class SoaLeafBlocks {
 public:
  /// Rows per group: the 16 fp32 lanes of one AVX-512 vector.
  static constexpr size_t kGroupRows = 16;
  /// Rows per fp64 vector of the widest tier (AVX-512: 8 doubles), half
  /// a group. kd trees split on multiples of it (index/kd_tree.h).
  static constexpr size_t kBlockPoints = 8;

  /// Groups needed for `rows` points (the last one possibly padded).
  static constexpr size_t NumGroups(size_t rows) {
    return (rows + kGroupRows - 1) / kGroupRows;
  }

  /// 32-bit words of the planes of `rows` points of `dims` values.
  static constexpr size_t PlaneWords(size_t rows, size_t dims) {
    return NumGroups(rows) * 2 * (dims + 1) * kGroupRows;
  }

  /// Doubles of the storage BuildFromRows takes: as many bytes as the
  /// planes.
  static constexpr size_t StorageDoubles(size_t rows, size_t dims) {
    return PlaneWords(rows, dims) / 2;
  }

  SoaLeafBlocks() = default;
  // Moving keeps the owned vector's buffer, so the span stays valid; a
  // copy would alias the source's storage.
  SoaLeafBlocks(const SoaLeafBlocks&) = delete;
  SoaLeafBlocks& operator=(const SoaLeafBlocks&) = delete;
  SoaLeafBlocks(SoaLeafBlocks&&) = default;
  SoaLeafBlocks& operator=(SoaLeafBlocks&&) = default;

  /// Builds owned planes whose row i is row i of `coords`, with weight
  /// weights[i]. Takes `coords` holding `rows` row-major rows of `dims`
  /// values, sized StorageDoubles(rows, dims) (what follows the last row
  /// need not be initialised), and `rows` weights, and splits each group
  /// into its planes in place, last group first: no second n×d buffer
  /// exists at any point. Every value and weight must be below
  /// kPlaneLimit in magnitude (a KARL_CHECK); tiny ones are stored as ±0.
  /// O(n·d).
  void BuildFromRows(size_t rows, size_t dims, BlockStorage coords,
                     std::span<const double> weights);

  /// Adopts external planes without copying: `planes` holds
  /// PlaneWords(rows, dims) words. Fails on a length mismatch, on a pad
  /// lane with a non-zero word, or on a weight that is negative or not
  /// finite (the narrow leaf pass relies on weights ≥ 0). `planes` must
  /// outlive this object.
  util::Status Attach(size_t rows, size_t dims,
                      std::span<const uint32_t> planes);

  /// True iff nothing has been built or attached.
  bool empty() const { return rows_ == 0; }

  size_t rows() const { return rows_; }
  size_t dims() const { return dims_; }
  size_t num_groups() const { return NumGroups(rows_); }

  /// True iff every weight is ≥ 0 (always, for attached planes).
  bool nonnegative_weights() const { return nonnegative_weights_; }

  /// The hi plane of group `group`: row j (j ≤ dims, dims = weights) at
  /// j·kGroupRows.
  const uint32_t* GroupHi(size_t group) const {
    return planes_.data() + group * 2 * (dims_ + 1) * kGroupRows;
  }

  /// The lo plane of group `group`, laid out as GroupHi's.
  const uint32_t* GroupLo(size_t group) const {
    return GroupHi(group) + (dims_ + 1) * kGroupRows;
  }

  /// Coordinate `dim` of permuted row `row`, rebuilt from its planes.
  double At(size_t row, size_t dim) const {
    const size_t at = dim * kGroupRows + row % kGroupRows;
    return JoinPlanes(GroupHi(row / kGroupRows)[at],
                      GroupLo(row / kGroupRows)[at]);
  }

  /// Weight of permuted row `row` (< rows()).
  double WeightAt(size_t row) const { return At(row, dims_); }

  /// Every plane word, pad lanes included (snapshot serialization).
  std::span<const uint32_t> planes() const { return planes_; }

  /// Bytes of the planes, owned or attached (index memory accounting;
  /// mapped pages are resident memory all the same).
  size_t MemoryUsageBytes() const { return planes_.size_bytes(); }

 private:
  size_t rows_ = 0;
  size_t dims_ = 0;
  bool nonnegative_weights_ = true;
  // Owned storage, holding plane words; empty for attached planes.
  BlockStorage owned_;
  // Active storage: the owned words or caller memory.
  std::span<const uint32_t> planes_;
};

}  // namespace karl::core::simd

#endif  // KARL_CORE_SIMD_SOA_BLOCK_H_
