// Tests for the ML substrate: KDE (Scott's rule), the 1-class SMO SVM
// trainer, the SVM-to-engine bridge, and model I/O.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/evaluator.h"
#include "data/synthetic.h"
#include "ml/kde.h"
#include "ml/model_io.h"
#include "ml/svm.h"
#include "svm_test_model.h"
#include "util/rng.h"

namespace karl::ml {
namespace {

// --------------------------------- KDE ---------------------------------

TEST(ScottBandwidthTest, ShrinksWithSampleSize) {
  util::Rng rng(1);
  const data::Matrix small = data::SampleUniform(100, 3, 0.0, 1.0, rng);
  const data::Matrix large = data::SampleUniform(10000, 3, 0.0, 1.0, rng);
  EXPECT_GT(ScottBandwidth(small), ScottBandwidth(large));
}

TEST(ScottBandwidthTest, ScalesWithSpread) {
  util::Rng rng(2);
  data::Matrix narrow = data::SampleUniform(500, 2, 0.0, 1.0, rng);
  data::Matrix wide = data::SampleUniform(500, 2, 0.0, 10.0, rng);
  EXPECT_GT(ScottBandwidth(wide), 5.0 * ScottBandwidth(narrow));
}

TEST(ScottBandwidthTest, ConstantDataGuard) {
  data::Matrix constant(50, 2);
  EXPECT_GT(ScottBandwidth(constant), 0.0);
}

TEST(BandwidthToGammaTest, InverseSquareRelation) {
  EXPECT_DOUBLE_EQ(BandwidthToGamma(1.0), 0.5);
  EXPECT_DOUBLE_EQ(BandwidthToGamma(0.5), 2.0);
}

TEST(KdeModelTest, FitRejectsEmptyData) {
  EngineOptions options;
  EXPECT_FALSE(KdeModel::Fit(data::Matrix(), options).ok());
}

TEST(KdeModelTest, DensityHigherInsideClusterThanOutside) {
  util::Rng rng(3);
  const data::Matrix pts = data::SampleClustered(2000, 3, 1, 0.05, rng);
  EngineOptions options;
  auto model = KdeModel::Fit(pts, options);
  ASSERT_TRUE(model.ok());

  // A dataset point sits in a dense region; a corner point does not.
  const auto inside = pts.Row(0);
  const std::vector<double> q_in(inside.begin(), inside.end());
  const std::vector<double> q_out(3, -0.49);
  EXPECT_GT(model.value().ExactDensity(q_in),
            10.0 * model.value().ExactDensity(q_out) + 1e-12);
}

TEST(KdeModelTest, ApproximateDensityWithinEps) {
  util::Rng rng(4);
  const data::Matrix pts = data::SampleClustered(1000, 3, 2, 0.08, rng);
  EngineOptions options;
  auto model = KdeModel::Fit(pts, options);
  ASSERT_TRUE(model.ok());
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(3);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const double exact = model.value().ExactDensity(q);
    const double approx = model.value().Density(q, 0.1);
    EXPECT_NEAR(approx, exact, 0.1 * exact + 1e-15);
  }
}

TEST(KdeModelTest, GammaOverrideRespected) {
  util::Rng rng(5);
  const data::Matrix pts = data::SampleUniform(100, 2, 0.0, 1.0, rng);
  EngineOptions options;
  auto model = KdeModel::Fit(pts, options, /*gamma_override=*/7.5);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model.value().gamma(), 7.5);
}

TEST(KdeModelTest, DensityAboveMatchesExactComparison) {
  util::Rng rng(6);
  const data::Matrix pts = data::SampleClustered(800, 2, 2, 0.07, rng);
  EngineOptions options;
  auto model = KdeModel::Fit(pts, options);
  ASSERT_TRUE(model.ok());
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(2);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const double exact = model.value().ExactDensity(q);
    EXPECT_EQ(model.value().DensityAbove(q, exact * 0.9), true);
    EXPECT_EQ(model.value().DensityAbove(q, exact * 1.1), false);
  }
}

// ------------------------------ 1-class SVM ------------------------------

TEST(OneClassSvmTest, RejectsBadInputs) {
  const auto kernel = core::KernelParams::Gaussian(1.0);
  OneClassSvmParams params;
  EXPECT_FALSE(TrainOneClassSvm(data::Matrix(), kernel, params).ok());
  util::Rng rng(12);
  const data::Matrix pts = data::SampleUniform(20, 2, 0.0, 1.0, rng);
  params.nu = 0.0;
  EXPECT_FALSE(TrainOneClassSvm(pts, kernel, params).ok());
  params.nu = 1.5;
  EXPECT_FALSE(TrainOneClassSvm(pts, kernel, params).ok());
}

TEST(OneClassSvmTest, CoefficientsAreTypeTwo) {
  util::Rng rng(13);
  const data::Matrix pts = data::SampleClustered(200, 3, 2, 0.05, rng);
  OneClassSvmParams params;
  params.nu = 0.2;
  auto model =
      TrainOneClassSvm(pts, core::KernelParams::Gaussian(3.0), params)
          .ValueOrDie();
  ASSERT_GT(model.coefficients.size(), 0u);
  double sum = 0.0;
  const double cap = 1.0 / (params.nu * 200.0);
  for (const double coef : model.coefficients) {
    EXPECT_GT(coef, 0.0);
    EXPECT_LE(coef, cap + 1e-9);
    sum += coef;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);  // Σα = 1 dual constraint.
}

TEST(OneClassSvmTest, FlagsOutliersAsNegative) {
  util::Rng rng(14);
  const data::Matrix inliers = data::SampleClustered(400, 3, 1, 0.04, rng);
  OneClassSvmParams params;
  params.nu = 0.1;
  auto model =
      TrainOneClassSvm(inliers, core::KernelParams::Gaussian(8.0), params)
          .ValueOrDie();

  // Most training inliers accepted (≈ 1 − ν).
  size_t accepted = 0;
  for (size_t i = 0; i < inliers.rows(); ++i) {
    accepted += SvmPredict(model, inliers.Row(i)) > 0;
  }
  EXPECT_GT(accepted, inliers.rows() * 7 / 10);

  // Far-away points rejected.
  const std::vector<double> far(3, 5.0);
  EXPECT_EQ(SvmPredict(model, far), -1);
}

// -------------------- SVM ↔ KAQ bridge & model I/O ----------------------

TEST(SvmEngineBridgeTest, EngineReproducesDecisions) {
  const SvmModel model = test::MixedSignSvmModel(
      core::KernelParams::Gaussian(2.0), 120, 4, 0.0, 1.0, 15);
  util::Rng rng(15);

  EngineOptions options;
  options.leaf_capacity = 8;
  double tau = 0.0;
  auto engine = MakeEngineFromSvm(model, options, &tau);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_DOUBLE_EQ(tau, model.rho);
  EXPECT_EQ(engine.value().weighting_type(), WeightingType::kTypeIII);

  int positive = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const bool scan_decision = SvmDecision(model, q) > 0.0;
    positive += scan_decision;
    EXPECT_EQ(engine.value().Tkaq(q, tau), scan_decision) << "trial " << trial;
  }
  // Both classes occur, so the comparison is not vacuous.
  EXPECT_GT(positive, 0);
  EXPECT_LT(positive, 40);
}

TEST(SvmEngineBridgeTest, OneClassEngineIsTypeTwo) {
  util::Rng rng(16);
  const data::Matrix pts = data::SampleClustered(150, 3, 1, 0.05, rng);
  OneClassSvmParams params;
  auto model =
      TrainOneClassSvm(pts, core::KernelParams::Gaussian(4.0), params)
          .ValueOrDie();
  EngineOptions options;
  double tau = 0.0;
  auto engine = MakeEngineFromSvm(model, options, &tau);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value().weighting_type(), WeightingType::kTypeII);
}

TEST(ModelIoTest, RoundTripsExactly) {
  const SvmModel model = test::MixedSignSvmModel(
      core::KernelParams::Gaussian(1.5), 60, 3, 0.0, 1.0, 17);
  auto back = ParseSvmModel(WriteSvmModel(model));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const auto& m = back.value();
  EXPECT_EQ(m.kernel.type, model.kernel.type);
  EXPECT_DOUBLE_EQ(m.kernel.gamma, model.kernel.gamma);
  EXPECT_DOUBLE_EQ(m.rho, model.rho);
  ASSERT_EQ(m.coefficients.size(), model.coefficients.size());
  for (size_t i = 0; i < m.coefficients.size(); ++i) {
    EXPECT_DOUBLE_EQ(m.coefficients[i], model.coefficients[i]);
  }
  ASSERT_EQ(m.support_vectors.rows(), model.support_vectors.rows());
  for (size_t i = 0; i < m.support_vectors.rows(); ++i) {
    for (size_t j = 0; j < m.support_vectors.cols(); ++j) {
      EXPECT_DOUBLE_EQ(m.support_vectors(i, j), model.support_vectors(i, j));
    }
  }
}

TEST(ModelIoTest, FileRoundTrip) {
  util::Rng rng(18);
  const data::Matrix pts = data::SampleClustered(80, 2, 1, 0.05, rng);
  auto model =
      TrainOneClassSvm(pts, core::KernelParams::Gaussian(2.0),
                       OneClassSvmParams{})
          .ValueOrDie();
  const std::string path =
      (std::filesystem::temp_directory_path() / "karl_model_test.txt")
          .string();
  ASSERT_TRUE(SaveSvmModel(path, model).ok());
  auto back = LoadSvmModel(path);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back.value().rho, model.rho);
  std::filesystem::remove(path);
}

TEST(ModelIoTest, RejectsGarbage) {
  EXPECT_FALSE(ParseSvmModel("not a model").ok());
  EXPECT_FALSE(ParseSvmModel("kernel gaussian\nrho 1\n").ok());  // No SV.
  EXPECT_FALSE(
      ParseSvmModel("kernel martian\nSV\n").ok());  // Unknown kernel.
  EXPECT_FALSE(
      ParseSvmModel("dim 2\nnr_sv 2\nSV\n1.0 0.5 0.5\n").ok());  // Truncated.
}

TEST(ModelIoTest, PolynomialKernelFieldsPreserved) {
  SvmModel model;
  model.kernel = core::KernelParams::Polynomial(0.25, 1.5, 4);
  model.rho = -2.0;
  model.support_vectors = data::Matrix(1, 2, {0.1, 0.2});
  model.coefficients = {0.7};
  auto back = ParseSvmModel(WriteSvmModel(model));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().kernel.type, core::KernelType::kPolynomial);
  EXPECT_DOUBLE_EQ(back.value().kernel.beta, 1.5);
  EXPECT_EQ(back.value().kernel.degree, 4);
}

}  // namespace
}  // namespace karl::ml
