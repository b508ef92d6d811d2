#include "data/pca.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "util/check.h"

namespace karl::data {

void JacobiEigenSymmetric(std::vector<double> a, size_t d,
                          std::vector<double>* eigenvalues,
                          std::vector<double>* eigenvectors,
                          int max_sweeps) {
  KARL_CHECK(a.size() == d * d)
      << ": Jacobi input has " << a.size() << " entries, want " << d << "x"
      << d;
  // vt starts as identity and accumulates the rotations; its rows end up
  // as the eigenvectors.
  std::vector<double> vt(d * d, 0.0);
  for (size_t i = 0; i < d; ++i) vt[i * d + i] = 1.0;

  // The rotations keep the squared Frobenius norm, so one reading of it
  // scales the stop: a matrix counts as diagonal when its off-diagonal
  // mass is below 1e-22 of its whole mass, whatever its units.
  double total = 0.0;
  for (const double x : a) total += x * x;
  const double stop = 1e-22 * total;

  // Rows p and q of a d×d row-major matrix m, rotated: (row_p, row_q) ←
  // (c·row_p − s·row_q, s·row_p + c·row_q), two columns at a time on a
  // vector-extension type (each element rounded as the scalar loop
  // rounds it, so the same bits on any target).
  using Double2 = double __attribute__((vector_size(16)));
  const auto rotate_rows = [d](double* m, size_t p, size_t q, double c,
                               double s) {
    double* rp = m + p * d;
    double* rq = m + q * d;
    size_t k = 0;
    for (; k + 2 <= d; k += 2) {
      Double2 x, y;
      std::memcpy(&x, rp + k, sizeof(x));
      std::memcpy(&y, rq + k, sizeof(y));
      const Double2 new_p = c * x - s * y;
      const Double2 new_q = s * x + c * y;
      std::memcpy(rp + k, &new_p, sizeof(new_p));
      std::memcpy(rq + k, &new_q, sizeof(new_q));
    }
    for (; k < d; ++k) {
      const double x = rp[k];
      const double y = rq[k];
      rp[k] = c * x - s * y;
      rq[k] = s * x + c * y;
    }
  };

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    // Off-diagonal Frobenius mass (upper triangle).
    double off = 0.0;
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = i + 1; j < d; ++j) off += a[i * d + j] * a[i * d + j];
    }
    if (off <= stop) break;

    for (size_t p = 0; p < d; ++p) {
      for (size_t q = p + 1; q < d; ++q) {
        const double apq = a[p * d + q];
        if (apq == 0.0) continue;
        const double app = a[p * d + p];
        const double aqq = a[q * d + q];
        // Classic Jacobi rotation annihilating a[p][q].
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        // Jᵀ·a on rows p and q; a·J on columns p and q then equals them
        // by symmetry, except in the 2×2 block, which takes its closed
        // form (the zero in it is what the rotation is for).
        rotate_rows(a.data(), p, q, c, s);
        for (size_t k = 0; k < d; ++k) {
          a[k * d + p] = a[p * d + k];
          a[k * d + q] = a[q * d + k];
        }
        a[p * d + p] = app - t * apq;
        a[q * d + q] = aqq + t * apq;
        a[p * d + q] = 0.0;
        a[q * d + p] = 0.0;
        rotate_rows(vt.data(), p, q, c, s);
      }
    }
  }

  eigenvalues->resize(d);
  for (size_t i = 0; i < d; ++i) (*eigenvalues)[i] = a[i * d + i];
  std::vector<double>& v = *eigenvectors;
  v.resize(d * d);
  for (size_t i = 0; i < d; ++i) {
    for (size_t k = 0; k < d; ++k) v[k * d + i] = vt[i * d + k];
  }
}

util::Result<PcaModel> PcaModel::Fit(const Matrix& m) {
  if (m.empty()) {
    return util::Status::InvalidArgument("PCA requires a non-empty matrix");
  }
  const size_t n = m.rows();
  const size_t d = m.cols();

  PcaModel model;
  model.mean_.assign(d, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const auto row = m.Row(i);
    for (size_t j = 0; j < d; ++j) model.mean_[j] += row[j];
  }
  for (auto& v : model.mean_) v /= static_cast<double>(n);

  // Covariance (biased, 1/n) — the normalisation constant does not affect
  // the eigenvectors.
  std::vector<double> cov(d * d, 0.0);
  std::vector<double> centered(d);
  for (size_t i = 0; i < n; ++i) {
    const auto row = m.Row(i);
    for (size_t j = 0; j < d; ++j) centered[j] = row[j] - model.mean_[j];
    for (size_t j = 0; j < d; ++j) {
      const double cj = centered[j];
      if (cj == 0.0) continue;
      double* cov_row = cov.data() + j * d;
      for (size_t k = j; k < d; ++k) cov_row[k] += cj * centered[k];
    }
  }
  for (size_t j = 0; j < d; ++j) {
    for (size_t k = j; k < d; ++k) {
      cov[j * d + k] /= static_cast<double>(n);
      cov[k * d + j] = cov[j * d + k];
    }
  }

  std::vector<double> eigenvalues;
  std::vector<double> eigenvectors;
  JacobiEigenSymmetric(std::move(cov), d, &eigenvalues, &eigenvectors);

  // Sort components by descending eigenvalue.
  std::vector<size_t> order(d);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return eigenvalues[a] > eigenvalues[b];
  });

  model.eigenvalues_.resize(d);
  model.components_ = Matrix(d, d);
  for (size_t r = 0; r < d; ++r) {
    const size_t src = order[r];
    model.eigenvalues_[r] = eigenvalues[src];
    auto dst = model.components_.MutableRow(r);
    for (size_t j = 0; j < d; ++j) dst[j] = eigenvectors[j * d + src];
  }
  return model;
}

util::Result<Matrix> PcaModel::Project(const Matrix& m, size_t k) const {
  const size_t d = dimensions();
  if (m.cols() != d) {
    return util::Status::InvalidArgument(
        "matrix dimensionality " + std::to_string(m.cols()) +
        " does not match PCA model dimensionality " + std::to_string(d));
  }
  if (k > d) {
    return util::Status::InvalidArgument(
        "cannot project onto " + std::to_string(k) + " > " +
        std::to_string(d) + " components");
  }
  Matrix out(m.rows(), k);
  std::vector<double> centered(d);
  for (size_t i = 0; i < m.rows(); ++i) {
    const auto row = m.Row(i);
    for (size_t j = 0; j < d; ++j) centered[j] = row[j] - mean_[j];
    auto dst = out.MutableRow(i);
    for (size_t c = 0; c < k; ++c) {
      const auto axis = components_.Row(c);
      double s = 0.0;
      for (size_t j = 0; j < d; ++j) s += centered[j] * axis[j];
      dst[c] = s;
    }
  }
  return out;
}

}  // namespace karl::data
