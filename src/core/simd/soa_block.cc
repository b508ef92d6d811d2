#include "core/simd/soa_block.h"

#include <string>

#include "util/check.h"

namespace karl::core::simd {

void SoaLeafBlocks::Build(const data::Matrix& points,
                          std::span<const size_t> perm,
                          std::span<const double> weights) {
  KARL_CHECK(perm.size() == points.rows() && weights.size() == points.rows())
      << ": " << perm.size() << " permutation entries and " << weights.size()
      << " weights for " << points.rows() << " points";
  rows_ = points.rows();
  dims_ = points.cols();
  num_blocks_ = NumBlocks(rows_);
  owned_coords_.assign(num_blocks_ * dims_ * kBlockPoints, 0.0);
  owned_weights_.assign(num_blocks_ * kBlockPoints, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const size_t block = i / kBlockPoints;
    const size_t lane = i % kBlockPoints;
    const auto row = points.Row(perm[i]);
    double* base = owned_coords_.data() + block * dims_ * kBlockPoints + lane;
    for (size_t j = 0; j < dims_; ++j) base[j * kBlockPoints] = row[j];
    owned_weights_[i] = weights[perm[i]];
  }
  coords_ = owned_coords_;
  weights_ = owned_weights_;
}

util::Status SoaLeafBlocks::Attach(size_t rows, size_t dims,
                                   std::span<const double> coords,
                                   std::span<const double> weights) {
  const size_t blocks = NumBlocks(rows);
  if (coords.size() != blocks * dims * kBlockPoints ||
      weights.size() != blocks * kBlockPoints) {
    return util::Status::InvalidArgument(
        "blocks section has " + std::to_string(coords.size()) + "/" +
        std::to_string(weights.size()) + " coordinate/weight values, want " +
        std::to_string(blocks * dims * kBlockPoints) + "/" +
        std::to_string(blocks * kBlockPoints));
  }
  // Pad lanes exist only in the last block: lanes [rows % 8, 8).
  for (size_t i = rows; i < blocks * kBlockPoints; ++i) {
    const size_t lane = i % kBlockPoints;
    bool zero = weights[i] == 0.0;
    for (size_t j = 0; zero && j < dims; ++j) {
      zero = coords[((blocks - 1) * dims + j) * kBlockPoints + lane] == 0.0;
    }
    if (!zero) {
      return util::Status::InvalidArgument(
          "pad lane " + std::to_string(lane) + " of the last block has a "
          "non-zero weight or coordinate");
    }
  }
  rows_ = rows;
  dims_ = dims;
  num_blocks_ = blocks;
  coords_ = coords;
  weights_ = weights;
  return util::Status::OK();
}

}  // namespace karl::core::simd
