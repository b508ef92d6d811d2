#include "core/simd/soa_block.h"

#include <algorithm>
#include <string>
#include <utility>

#include "util/check.h"

namespace karl::core::simd {

void SoaLeafBlocks::BuildFromRows(size_t rows, size_t dims,
                                  BlockStorage coords,
                                  std::vector<double> weights) {
  const size_t blocks = NumBlocks(rows);
  KARL_CHECK(coords.size() == blocks * dims * kBlockPoints &&
             weights.size() == rows)
      << ": " << coords.size() << "/" << weights.size()
      << " coordinate/weight values for " << rows << " rows of " << dims;
  std::fill(coords.begin() + rows * dims, coords.end(), 0.0);  // Pad rows.
  weights.resize(blocks * kBlockPoints, 0.0);
  // A group of 8 rows and its block cover the same 8·dims values, so
  // each group is transposed through one block-sized buffer.
  std::vector<double> group(dims * kBlockPoints);
  for (size_t b = 0; b < blocks; ++b) {
    double* base = coords.data() + b * dims * kBlockPoints;
    std::copy(base, base + group.size(), group.begin());
    for (size_t lane = 0; lane < kBlockPoints; ++lane) {
      const double* row = group.data() + lane * dims;
      for (size_t j = 0; j < dims; ++j) base[j * kBlockPoints + lane] = row[j];
    }
  }
  rows_ = rows;
  dims_ = dims;
  num_blocks_ = blocks;
  owned_coords_ = std::move(coords);
  owned_weights_ = std::move(weights);
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
