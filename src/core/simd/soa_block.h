// Blocked structure-of-arrays (SoA) point storage: the only copy of a
// tree's points and weights, read by every SIMD tier (see DESIGN.md §14).
//
// A row-major point matrix is great for pointer-chased per-row access but
// hostile to SIMD: gathering one dimension across 8 points touches 8
// cache lines. SoaLeafBlocks stores the tree-permuted points as
// fixed-size blocks of kBlockPoints points, dimension-major inside each
// block:
//
//   coords[(block*d + dim)*kBlockPoints + lane]   lane = row % kBlockPoints
//
// so a vector load of lanes 0..7 of one dimension is one contiguous,
// cache-friendly read. Weights are blocked the same way; padding lanes
// past the last real row carry weight 0 and coordinate 0, which makes
// every kernel contribution of a pad lane exactly 0 without branches.
//
// The layout is blocked over the ENTIRE permuted array, not per leaf:
// any node range [begin, end) — a real leaf, a level-capped effective
// leaf, or the full array for QueryExact — maps onto whole blocks plus
// at most two partial blocks handled with masked weights. Only the last
// block can hold pad lanes. A newly built kd tree splits on block
// boundaries (index/kd_tree.h), so its ranges start on a block and have
// at most a partial last one, save the exceptions DESIGN.md §5 lists;
// ball trees and arbitrary ranges can still start mid-block.
//
// Storage duality, as for TreeIndex: the blocks are either *built*
// (BuildFromRows — owned vectors) or *attached* (Attach — non-owning views into
// caller memory, typically the blocks section of an mmap-ed snapshot;
// see registry/snapshot.h). Readers go through spans either way.

#ifndef KARL_CORE_SIMD_SOA_BLOCK_H_
#define KARL_CORE_SIMD_SOA_BLOCK_H_

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

/// Storage for blocked coordinates, written in full by its builder.
using BlockStorage = std::vector<double, NoInitAllocator<double>>;

/// Dimension-major blocked point set + weights, in tree-permuted order.
class SoaLeafBlocks {
 public:
  /// Points per block == the widest vector width we target (AVX-512:
  /// 8 doubles). AVX2 processes a block as two 4-lane half-blocks.
  static constexpr size_t kBlockPoints = 8;

  /// Blocks needed for `rows` points (the last one possibly padded).
  static constexpr size_t NumBlocks(size_t rows) {
    return (rows + kBlockPoints - 1) / kBlockPoints;
  }

  SoaLeafBlocks() = default;
  // Moving keeps the owned vectors' buffers, so the spans stay valid;
  // a copy would alias the source's storage.
  SoaLeafBlocks(const SoaLeafBlocks&) = delete;
  SoaLeafBlocks& operator=(const SoaLeafBlocks&) = delete;
  SoaLeafBlocks(SoaLeafBlocks&&) = default;
  SoaLeafBlocks& operator=(SoaLeafBlocks&&) = default;

  /// Builds owned blocks whose row i is row i of `coords`, with weight
  /// weights[i]. Takes `coords` holding `rows` row-major rows of `dims`
  /// values, sized NumBlocks(rows)·dims·kBlockPoints (what follows the
  /// last row need not be initialised), and `rows` weights, and turns
  /// each 8-row group into its block in place, zeroing the pad lanes and
  /// their weights: no second n×d buffer exists at any point. O(n·d).
  void BuildFromRows(size_t rows, size_t dims, BlockStorage coords,
                     std::vector<double> weights);

  /// Adopts external blocked arrays without copying: `coords` holds
  /// NumBlocks(rows)·dims·kBlockPoints values, `weights`
  /// NumBlocks(rows)·kBlockPoints. Fails on a length mismatch or on a
  /// pad lane whose weight or coordinate is not 0 (the vector kernels
  /// rely on pad lanes contributing exactly 0). Both spans must outlive
  /// this object.
  util::Status Attach(size_t rows, size_t dims, std::span<const double> coords,
                      std::span<const double> weights);

  /// True iff nothing has been built or attached.
  bool empty() const { return rows_ == 0; }

  size_t rows() const { return rows_; }
  size_t dims() const { return dims_; }
  size_t num_blocks() const { return num_blocks_; }

  /// The kBlockPoints lanes of dimension `dim` in block `block`.
  const double* BlockDim(size_t block, size_t dim) const {
    return coords_.data() + (block * dims_ + dim) * kBlockPoints;
  }

  /// The kBlockPoints weight lanes of block `block` (pad lanes are 0).
  const double* BlockWeights(size_t block) const {
    return weights_.data() + block * kBlockPoints;
  }

  /// Scalar gather of one coordinate of permuted row `row`.
  double At(size_t row, size_t dim) const {
    return *(BlockDim(row / kBlockPoints, dim) + row % kBlockPoints);
  }

  /// The coordinates of permuted row `row`, kBlockPoints apart:
  /// dimension j is RowLanes(row)[j * kBlockPoints].
  const double* RowLanes(size_t row) const {
    return BlockDim(row / kBlockPoints, 0) + row % kBlockPoints;
  }

  /// Weight of permuted row `row` (< rows()).
  double WeightAt(size_t row) const { return weights_[row]; }

  /// Whole blocked coordinate array, pad lanes included (snapshot
  /// serialization).
  std::span<const double> coords() const { return coords_; }

  /// Whole blocked weight array, pad lanes included.
  std::span<const double> block_weights() const { return weights_; }

  /// Per-row weights: the first rows() entries of block_weights().
  std::span<const double> weights() const { return weights_.first(rows_); }

  /// Bytes of the blocked arrays, owned or attached (index memory
  /// accounting; mapped pages are resident memory all the same).
  size_t MemoryUsageBytes() const {
    return (coords_.size() + weights_.size()) * sizeof(double);
  }

 private:
  size_t rows_ = 0;
  size_t dims_ = 0;
  size_t num_blocks_ = 0;
  // Owned storage; empty for attached blocks.
  BlockStorage owned_coords_;
  std::vector<double> owned_weights_;
  // Active storage: the owned vectors or caller memory.
  std::span<const double> coords_;   // num_blocks * dims * kBlockPoints.
  std::span<const double> weights_;  // num_blocks * kBlockPoints.
};

}  // namespace karl::core::simd

#endif  // KARL_CORE_SIMD_SOA_BLOCK_H_
