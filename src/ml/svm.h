// Support vector machine substrate, built from scratch.
//
// The paper's Type-II / Type-III workloads come out of LIBSVM training
// (1-class and 2-class SVMs respectively). This module replaces the
// 1-class side with an SMO trainer producing the same artefacts: support
// vectors, coefficients, and the decision threshold ρ. Type-III models
// (signed coefficients) are synthesized by the benchmarks instead of
// trained. An SVM decision f(q) = Σ coef_i·K(sv_i, q) − ρ > 0 is exactly
// a TKAQ with τ = ρ over the support-vector set — the bridge the paper
// exploits.

#ifndef KARL_ML_SVM_H_
#define KARL_ML_SVM_H_

#include <vector>

#include "core/karl.h"
#include "core/kernel.h"
#include "data/matrix.h"
#include "util/status.h"

namespace karl::ml {

/// A trained SVM: decision f(q) = Σ coefficients_i·K(sv_i, q) − rho.
/// Predict +1 when f(q) > 0, else −1.
struct SvmModel {
  core::KernelParams kernel;
  data::Matrix support_vectors;
  /// α_i·y_i for 2-class models (signed — Type III); α_i for 1-class
  /// models (positive — Type II).
  std::vector<double> coefficients;
  double rho = 0.0;
  size_t training_iterations = 0;
};

/// Evaluates the decision function f(q) by sequential scan.
double SvmDecision(const SvmModel& model, std::span<const double> q);

/// Classifies q: +1 if f(q) > 0 else −1.
int SvmPredict(const SvmModel& model, std::span<const double> q);

/// Fraction of (points, labels) classified correctly.
double SvmAccuracy(const SvmModel& model, const data::Matrix& points,
                   std::span<const double> labels);

/// One-class SVM training parameters (Schölkopf et al. '99).
struct OneClassSvmParams {
  double nu = 0.1;          ///< Outlier-fraction bound, in (0, 1].
  double tolerance = 1e-4;  ///< Gradient-gap tolerance.
  size_t max_iterations = 200000;
};

/// Trains a 1-class SVM by SMO on the ν-formulation dual. Produces a
/// Type-II (all-positive) coefficient set.
util::Result<SvmModel> TrainOneClassSvm(const data::Matrix& points,
                                        const core::KernelParams& kernel,
                                        const OneClassSvmParams& params);

/// Builds a KARL engine over the model's support vectors/coefficients and
/// reports the TKAQ threshold (= ρ) that reproduces SvmPredict. The
/// `options.kernel` field is overwritten with the model's kernel.
util::Result<Engine> MakeEngineFromSvm(const SvmModel& model,
                                       const EngineOptions& options,
                                       double* tau);

}  // namespace karl::ml

#endif  // KARL_ML_SVM_H_
