#include "data/sparse_matrix.h"

#include "util/check.h"


namespace karl::data {

SparseMatrix SparseMatrix::FromDense(const Matrix& dense) {
  SparseMatrix out;
  out.cols_ = dense.cols();
  out.row_offsets_.reserve(dense.rows() + 1);
  out.row_offsets_.push_back(0);
  out.sq_norms_.reserve(dense.rows());
  for (size_t i = 0; i < dense.rows(); ++i) {
    const auto row = dense.Row(i);
    double sq = 0.0;
    for (size_t j = 0; j < row.size(); ++j) {
      if (row[j] != 0.0) {
        out.entries_.push_back({static_cast<uint32_t>(j), row[j]});
        sq += row[j] * row[j];
      }
    }
    out.row_offsets_.push_back(out.entries_.size());
    out.sq_norms_.push_back(sq);
  }
  return out;
}

double SparseMatrix::DotDense(size_t i, std::span<const double> dense) const {
  KARL_DCHECK(dense.size() == cols_)
      << ": dense vector has " << dense.size() << " entries, want "
      << cols_;
  double s = 0.0;
  for (const Entry& e : Row(i)) s += e.value * dense[e.column];
  return s;
}

}  // namespace karl::data
