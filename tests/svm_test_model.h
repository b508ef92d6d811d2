// A hand-set 2-class SVM model for the Type-III tests. The benchmarks
// synthesize Type-III coefficients the same way (bench_common's
// MakeTypeIIIWorkload) instead of training a C-SVC: the sign of α_i·y_i
// follows the side of a fixed hyperplane the support vector lies on, so
// the decision function has a positive and a negative region.

#ifndef KARL_TESTS_SVM_TEST_MODEL_H_
#define KARL_TESTS_SVM_TEST_MODEL_H_

#include <cstdint>
#include <vector>

#include "core/kernel.h"
#include "data/synthetic.h"
#include "ml/svm.h"
#include "util/math_util.h"
#include "util/rng.h"

namespace karl::test {

/// `n` support vectors uniform in [lo, hi]^d and mixed-sign coefficients
/// with magnitudes in [0.05, 1]. The bias ρ puts the centre of the box on
/// the decision boundary, so queries spread over the box fall on both
/// sides. Deterministic in `seed`.
inline ml::SvmModel MixedSignSvmModel(const core::KernelParams& kernel,
                                      size_t n, size_t d, double lo,
                                      double hi, uint64_t seed) {
  util::Rng rng(seed);
  ml::SvmModel model;
  model.kernel = kernel;
  model.support_vectors = data::SampleUniform(n, d, lo, hi, rng);
  std::vector<double> normal(d);
  for (auto& v : normal) v = rng.Gaussian();
  const std::vector<double> centre(d, 0.5 * (lo + hi));
  const double offset = util::Dot(centre, normal);
  model.coefficients.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double side =
        util::Dot(model.support_vectors.Row(i), normal) - offset;
    const double alpha = rng.Uniform(0.05, 1.0);
    model.coefficients.push_back(side >= 0.0 ? alpha : -alpha);
  }
  model.rho = ml::SvmDecision(model, centre);  // ρ is still 0 here.
  return model;
}

}  // namespace karl::test

#endif  // KARL_TESTS_SVM_TEST_MODEL_H_
