// Row-major dense dataset container.
//
// A Matrix stores n points of dimensionality d contiguously; rows are the
// points. This is the canonical in-memory representation for every dataset
// KARL indexes or queries against.

#ifndef KARL_DATA_MATRIX_H_
#define KARL_DATA_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "util/check.h"

namespace karl::data {

/// Dense row-major matrix of doubles; each row is one data point.
class Matrix {
 public:
  /// Constructs an empty 0 x 0 matrix.
  Matrix() = default;

  /// Constructs an n x d matrix of zeros.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), values_(rows * cols, 0.0) {}

  /// Constructs from flat row-major data; `values.size()` must equal
  /// rows * cols.
  Matrix(size_t rows, size_t cols, std::vector<double> values)
      : rows_(rows), cols_(cols), values_(std::move(values)) {
    KARL_CHECK(values_.size() == rows_ * cols_)
        << ": flat data has " << values_.size() << " values, want "
        << rows_ << "x" << cols_;
  }

  /// Number of points (rows).
  size_t rows() const { return rows_; }

  /// Dimensionality (columns).
  size_t cols() const { return cols_; }

  /// True iff the matrix holds no data.
  bool empty() const { return rows_ == 0; }

  /// Immutable view of row `i`.
  std::span<const double> Row(size_t i) const {
    KARL_DCHECK(i < rows_) << ": row " << i << " of " << rows_;
    return {data() + i * cols_, cols_};
  }

  /// Mutable view of row `i`.
  std::span<double> MutableRow(size_t i) {
    KARL_DCHECK(i < rows_) << ": row " << i << " of " << rows_;
    return {values_.data() + i * cols_, cols_};
  }

  /// Element accessors.
  double operator()(size_t i, size_t j) const {
    KARL_DCHECK(i < rows_ && j < cols_)
        << ": (" << i << "," << j << ") of " << rows_ << "x" << cols_;
    return data()[i * cols_ + j];
  }
  double& operator()(size_t i, size_t j) {
    KARL_DCHECK(i < rows_ && j < cols_)
        << ": (" << i << "," << j << ") of " << rows_ << "x" << cols_;
    return values_[i * cols_ + j];
  }

  /// Appends a row; `row.size()` must match cols() (or set cols on the
  /// first row of an empty matrix).
  void AppendRow(std::span<const double> row);

  /// Flat row-major storage.
  std::span<const double> Flat() const { return values_; }

  /// Flat row-major storage as the owned vector.
  const std::vector<double>& values() const { return values_; }

  /// Returns a new matrix containing the given rows, in order.
  Matrix SelectRows(std::span<const size_t> indices) const;

  /// Returns a new matrix containing only the first `k` columns of every
  /// row. Requires k <= cols().
  Matrix TruncateColumns(size_t k) const;

 private:
  const double* data() const { return values_.data(); }

  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> values_;
};

}  // namespace karl::data

#endif  // KARL_DATA_MATRIX_H_
