// Compressed sparse row (CSR) point-set storage and sparse kernel scans.
//
// LIBSVM stores and evaluates data sparsely; this substrate mirrors that
// code path so the benchmark's LIBSVM baseline (and users with genuinely
// sparse data, e.g. a9a's one-hot features) computes kernel aggregates
// through sparse dot products.

#ifndef KARL_DATA_SPARSE_MATRIX_H_
#define KARL_DATA_SPARSE_MATRIX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/matrix.h"

namespace karl::data {

/// Immutable CSR matrix of doubles.
class SparseMatrix {
 public:
  /// One stored entry: column index + value.
  struct Entry {
    uint32_t column;
    double value;
  };

  /// Builds CSR from a dense matrix, dropping zeros.
  static SparseMatrix FromDense(const Matrix& dense);

  /// Number of rows.
  size_t rows() const { return row_offsets_.size() - 1; }

  /// Logical column count.
  size_t cols() const { return cols_; }

  /// Entries of row i.
  std::span<const Entry> Row(size_t i) const {
    return {entries_.data() + row_offsets_[i],
            row_offsets_[i + 1] - row_offsets_[i]};
  }

  /// ||row_i||² (precomputed).
  double RowSquaredNorm(size_t i) const { return sq_norms_[i]; }

  /// Sparse dot product of row i with a dense vector.
  double DotDense(size_t i, std::span<const double> dense) const;


 private:
  SparseMatrix() = default;

  size_t cols_ = 0;
  std::vector<size_t> row_offsets_;  // rows()+1 entries.
  std::vector<Entry> entries_;
  std::vector<double> sq_norms_;
};

}  // namespace karl::data

#endif  // KARL_DATA_SPARSE_MATRIX_H_
