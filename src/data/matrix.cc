#include "data/matrix.h"

#include "util/check.h"

namespace karl::data {

void Matrix::AppendRow(std::span<const double> row) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = row.size();
  }
  KARL_CHECK(row.size() == cols_)
      << ": appended row has " << row.size() << " values, want " << cols_;
  values_.insert(values_.end(), row.begin(), row.end());
  ++rows_;
}

Matrix Matrix::SelectRows(std::span<const size_t> indices) const {
  Matrix out(indices.size(), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    KARL_CHECK(indices[i] < rows_)
        << ": selected row " << indices[i] << " of " << rows_;
    const auto src = Row(indices[i]);
    auto dst = out.MutableRow(i);
    for (size_t j = 0; j < cols_; ++j) dst[j] = src[j];
  }
  return out;
}

Matrix Matrix::TruncateColumns(size_t k) const {
  KARL_CHECK(k <= cols_)
      << ": cannot truncate to " << k << " of " << cols_ << " columns";
  Matrix out(rows_, k);
  for (size_t i = 0; i < rows_; ++i) {
    const auto src = Row(i);
    auto dst = out.MutableRow(i);
    for (size_t j = 0; j < k; ++j) dst[j] = src[j];
  }
  return out;
}

}  // namespace karl::data
