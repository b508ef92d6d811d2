// Principal component analysis via a cyclic Jacobi eigensolver on the
// covariance matrix. Drives the paper's Figure 12 experiment (varying the
// dimensionality of mnist via PCA reduction).

#ifndef KARL_DATA_PCA_H_
#define KARL_DATA_PCA_H_

#include <vector>

#include "data/matrix.h"
#include "util/status.h"

namespace karl::data {

/// Fitted PCA model: mean vector + principal axes sorted by decreasing
/// eigenvalue. Project any matrix of matching dimensionality onto the
/// first k components.
class PcaModel {
 public:
  /// Fits PCA on `m` (rows = points). Fails on an empty matrix.
  static util::Result<PcaModel> Fit(const Matrix& m);

  /// Projects `m` onto the first `k` principal components. Requires
  /// m.cols() == input dimensionality and k <= that dimensionality.
  util::Result<Matrix> Project(const Matrix& m, size_t k) const;

  /// Eigenvalues of the covariance matrix, descending.
  const std::vector<double>& eigenvalues() const { return eigenvalues_; }

  /// Column means of the training data.
  const std::vector<double>& mean() const { return mean_; }

  /// Input dimensionality the model was fitted on.
  size_t dimensions() const { return mean_.size(); }

 private:
  PcaModel() = default;

  std::vector<double> mean_;
  std::vector<double> eigenvalues_;
  // Row i = i-th principal axis (descending eigenvalue), length d.
  Matrix components_;
};

/// Jacobi eigendecomposition of a symmetric d x d matrix (row-major).
/// Outputs eigenvalues (unsorted) and the matrix of eigenvectors as
/// columns of `eigenvectors`. Sweeps stop after `max_sweeps`, or once the
/// off-diagonal mass is below 1e-22 of the matrix's squared Frobenius
/// norm: the stop is relative, so a matrix and any multiple of it get
/// the same axes. Used by PcaModel and the kd trees' principal frames
/// (index/principal_frame.h).
void JacobiEigenSymmetric(std::vector<double> matrix, size_t d,
                          std::vector<double>* eigenvalues,
                          std::vector<double>* eigenvectors,
                          int max_sweeps = 32);

}  // namespace karl::data

#endif  // KARL_DATA_PCA_H_
