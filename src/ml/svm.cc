#include "ml/svm.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace karl::ml {

namespace {

// Kernel row cache-free helper: K(x_i, x_j) over a training matrix.
double TrainKernel(const core::KernelParams& kernel, const data::Matrix& x,
                   size_t i, size_t j) {
  return core::KernelValue(kernel, x.Row(i), x.Row(j));
}

// Extracts the support vectors (|alpha| > 0) into a model.
SvmModel ExtractModel(const core::KernelParams& kernel,
                      const data::Matrix& x,
                      std::span<const double> signed_alpha, double rho,
                      size_t iterations) {
  SvmModel model;
  model.kernel = kernel;
  model.rho = rho;
  model.training_iterations = iterations;
  std::vector<size_t> sv_rows;
  for (size_t i = 0; i < signed_alpha.size(); ++i) {
    if (signed_alpha[i] != 0.0) sv_rows.push_back(i);
  }
  model.support_vectors = x.SelectRows(sv_rows);
  model.coefficients.reserve(sv_rows.size());
  for (const size_t i : sv_rows) model.coefficients.push_back(signed_alpha[i]);
  return model;
}

}  // namespace

double SvmDecision(const SvmModel& model, std::span<const double> q) {
  double f = 0.0;
  for (size_t i = 0; i < model.support_vectors.rows(); ++i) {
    f += model.coefficients[i] *
         core::KernelValue(model.kernel, q, model.support_vectors.Row(i));
  }
  return f - model.rho;
}

int SvmPredict(const SvmModel& model, std::span<const double> q) {
  return SvmDecision(model, q) > 0.0 ? +1 : -1;
}

double SvmAccuracy(const SvmModel& model, const data::Matrix& points,
                   std::span<const double> labels) {
  KARL_CHECK(labels.size() == points.rows())
      << ": " << labels.size() << " labels for " << points.rows()
      << " points";
  if (points.rows() == 0) return 0.0;
  size_t correct = 0;
  for (size_t i = 0; i < points.rows(); ++i) {
    const int predicted = SvmPredict(model, points.Row(i));
    if ((predicted > 0) == (labels[i] > 0)) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(points.rows());
}

util::Result<SvmModel> TrainOneClassSvm(const data::Matrix& points,
                                        const core::KernelParams& kernel,
                                        const OneClassSvmParams& params) {
  KARL_RETURN_NOT_OK(kernel.Validate());
  const size_t n = points.rows();
  if (n == 0) {
    return util::Status::InvalidArgument("cannot train SVM on empty data");
  }
  if (params.nu <= 0.0 || params.nu > 1.0) {
    return util::Status::InvalidArgument("nu must be in (0, 1]");
  }

  // Dual [Schölkopf'99]: min ½αᵀKα, 0 ≤ α_i ≤ 1/(νn), Σα = 1.
  const double cap = 1.0 / (params.nu * static_cast<double>(n));
  std::vector<double> alpha(n, 0.0);
  // LIBSVM-style initialisation: fill the first ⌈νn⌉ coordinates.
  {
    double remaining = 1.0;
    for (size_t i = 0; i < n && remaining > 0.0; ++i) {
      alpha[i] = std::min(cap, remaining);
      remaining -= alpha[i];
    }
  }

  // Gradient G_i = (Kα)_i.
  std::vector<double> grad(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (alpha[i] == 0.0) continue;
    for (size_t t = 0; t < n; ++t) {
      grad[t] += alpha[i] * TrainKernel(kernel, points, t, i);
    }
  }

  size_t iter = 0;
  for (; iter < params.max_iterations; ++iter) {
    // Move mass from the highest-gradient loaded coordinate to the
    // lowest-gradient unsaturated one.
    int i = -1, j = -1;
    double gi = -1e300, gj = 1e300;
    for (size_t t = 0; t < n; ++t) {
      if (alpha[t] > 0.0 && grad[t] > gi) {
        gi = grad[t];
        i = static_cast<int>(t);
      }
      if (alpha[t] < cap && grad[t] < gj) {
        gj = grad[t];
        j = static_cast<int>(t);
      }
    }
    if (i < 0 || j < 0 || gi - gj < params.tolerance) break;

    const size_t si = static_cast<size_t>(i);
    const size_t sj = static_cast<size_t>(j);
    double quad = TrainKernel(kernel, points, si, si) +
                  TrainKernel(kernel, points, sj, sj) -
                  2.0 * TrainKernel(kernel, points, si, sj);
    if (quad <= 0.0) quad = 1e-12;
    const double delta =
        std::min({(gi - gj) / quad, alpha[si], cap - alpha[sj]});
    if (delta <= 0.0) break;

    alpha[si] -= delta;
    alpha[sj] += delta;
    for (size_t t = 0; t < n; ++t) {
      grad[t] += delta * (TrainKernel(kernel, points, t, sj) -
                          TrainKernel(kernel, points, t, si));
    }
  }

  // ρ: the decision value at free support vectors; average for stability.
  double rho_sum = 0.0;
  size_t rho_count = 0;
  for (size_t t = 0; t < n; ++t) {
    if (alpha[t] > 0.0 && alpha[t] < cap) {
      rho_sum += grad[t];
      ++rho_count;
    }
  }
  double rho;
  if (rho_count > 0) {
    rho = rho_sum / static_cast<double>(rho_count);
  } else {
    // All SVs at bound: ρ is the midpoint of the feasibility band.
    double hi = -1e300, lo = 1e300;
    for (size_t t = 0; t < n; ++t) {
      if (alpha[t] > 0.0) hi = std::max(hi, grad[t]);
      if (alpha[t] < cap) lo = std::min(lo, grad[t]);
    }
    rho = 0.5 * (hi + lo);
  }

  return ExtractModel(kernel, points, alpha, rho, iter);
}

util::Result<Engine> MakeEngineFromSvm(const SvmModel& model,
                                       const EngineOptions& options,
                                       double* tau) {
  EngineOptions engine_options = options;
  engine_options.kernel = model.kernel;
  auto engine =
      Engine::Build(model.support_vectors, model.coefficients, engine_options);
  if (!engine.ok()) return engine.status();
  if (tau != nullptr) *tau = model.rho;
  return engine;
}

}  // namespace karl::ml
