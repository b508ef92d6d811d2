#include "core/simd/soa_block.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <new>
#include <string>
#include <utility>

#include "util/check.h"

namespace karl::core::simd {

void SoaLeafBlocks::BuildFromRows(size_t rows, size_t dims,
                                  BlockStorage coords,
                                  std::span<const double> weights) {
  const size_t groups = NumGroups(rows);
  KARL_CHECK(coords.size() == StorageDoubles(rows, dims) &&
             weights.size() == rows)
      << ": " << coords.size() << "/" << weights.size()
      << " coordinate/weight values for " << rows << " rows of " << dims;
  const size_t plane_words = (dims + 1) * kGroupRows;
  // Group g's rows start at double g·16·dims and its planes at double
  // g·16·(dims + 1): never before its rows, and never past the rows of a
  // later group that has not yet been split, when the groups go last
  // first. Each group is split into `words` before its planes overwrite
  // its rows; the last group is padded with zero rows and weights.
  //
  // The words go in through std::memcpy, which ends the lifetime of the
  // doubles it overwrites and begins that of the words (implicit object
  // creation), so no double is ever read as a uint32_t.
  std::vector<uint32_t> words(2 * plane_words);
  uint32_t* const hi = words.data();
  uint32_t* const lo = hi + plane_words;
  auto* const storage = reinterpret_cast<std::byte*>(coords.data());
  // Bit 63 of a magnitude's bits plus this is set iff the magnitude is at
  // least 2^128 (or NaN).
  constexpr uint64_t kOverLimit =
      (uint64_t{1} << 63) - std::bit_cast<uint64_t>(kPlaneLimit);
  uint64_t over_limit = 0;
  const auto split = [&](double v, size_t at) {
    over_limit |= (std::bit_cast<uint64_t>(v) & ~(uint64_t{1} << 63)) +
                  kOverLimit;
    SplitToPlanes(v, &hi[at], &lo[at]);
  };
  for (size_t g = groups; g-- > 0;) {
    const size_t first = g * kGroupRows;
    const size_t count = std::min(kGroupRows, rows - first);
    if (count < kGroupRows) std::fill(words.begin(), words.end(), 0u);
    for (size_t r = 0; r < count; ++r) {
      const double* row = coords.data() + (first + r) * dims;
      for (size_t j = 0; j < dims; ++j) split(row[j], j * kGroupRows + r);
      split(weights[first + r], dims * kGroupRows + r);
    }
    std::memcpy(storage + 2 * g * plane_words * sizeof(uint32_t),
                words.data(), words.size() * sizeof(uint32_t));
  }
  KARL_CHECK((over_limit >> 63) == 0)
      << ": a value at or above 2^128 in magnitude reached the planes";
  rows_ = rows;
  dims_ = dims;
  nonnegative_weights_ =
      std::ranges::none_of(weights, [](double w) { return w < 0.0; });
  owned_ = std::move(coords);
  planes_ = {};
  if (!owned_.empty()) {
    planes_ = {std::launder(reinterpret_cast<const uint32_t*>(owned_.data())),
               PlaneWords(rows, dims)};
  }
}

util::Status SoaLeafBlocks::Attach(size_t rows, size_t dims,
                                   std::span<const uint32_t> planes) {
  if (planes.size() != PlaneWords(rows, dims)) {
    return util::Status::InvalidArgument(
        "planes section has " + std::to_string(planes.size()) +
        " words, want " + std::to_string(PlaneWords(rows, dims)));
  }
  rows_ = rows;
  dims_ = dims;
  nonnegative_weights_ = true;
  planes_ = planes;
  // Pad lanes exist only in the last group: lanes [rows % 16, 16).
  const size_t last = NumGroups(rows) - 1;
  for (size_t lane = rows - last * kGroupRows; lane < kGroupRows; ++lane) {
    for (size_t j = 0; j <= dims; ++j) {
      if (GroupHi(last)[j * kGroupRows + lane] != 0 ||
          GroupLo(last)[j * kGroupRows + lane] != 0) {
        rows_ = 0;
        planes_ = {};
        return util::Status::InvalidArgument(
            "pad lane " + std::to_string(lane) +
            " of the last group has a non-zero word");
      }
    }
  }
  // A weight's hi word is an fp32 of its sign and exponent: ≥ 0 and
  // finite is +0 up to the largest finite positive fp32 (-0 is 0x80000000).
  for (size_t row = 0; row < rows; ++row) {
    const uint32_t hi = GroupHi(row / kGroupRows)[dims * kGroupRows +
                                                  row % kGroupRows];
    if (hi >= 0x7F800000u && hi != 0x80000000u) {
      const double w = WeightAt(row);
      rows_ = 0;
      planes_ = {};
      return util::Status::InvalidArgument(
          "weight " + std::to_string(w) + " of row " + std::to_string(row) +
          " is negative or not finite");
    }
  }
  return util::Status::OK();
}

}  // namespace karl::core::simd
