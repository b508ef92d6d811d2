// Cross-module integration tests: full paper pipelines end to end —
// data generation → (training) → index build → tuning → queries, checked
// against brute force at every stage.

#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluator.h"
#include "core/karl.h"
#include "core/tuning.h"
#include "data/pca.h"
#include "data/synthetic.h"
#include "ml/kde.h"
#include "ml/model_io.h"
#include "ml/svm.h"
#include "svm_test_model.h"
#include "util/rng.h"

namespace karl {
namespace {

using core::BoundKind;
using core::KernelParams;

// Type-I pipeline: UCI-like dataset → KDE → eKAQ and TKAQ, KARL vs SOTA
// vs brute force all agree.
TEST(IntegrationTest, TypeOneKdePipeline) {
  auto spec = data::FindDataset("home").ValueOrDie();
  spec.n = 3000;  // Scaled for test speed.
  const data::Matrix pts = data::MakeUciLike(spec);

  EngineOptions options;
  options.leaf_capacity = 32;
  auto model = ml::KdeModel::Fit(pts, options);
  ASSERT_TRUE(model.ok());

  EngineOptions sota_options = options;
  sota_options.bounds = BoundKind::kSota;
  auto sota = ml::KdeModel::Fit(pts, sota_options);
  ASSERT_TRUE(sota.ok());

  util::Rng rng(1);
  const auto qrows = rng.SampleWithoutReplacement(pts.rows(), 20);
  for (const size_t row : qrows) {
    const auto qspan = pts.Row(row);
    const std::vector<double> q(qspan.begin(), qspan.end());
    const double exact = model.value().ExactDensity(q);
    const double karl_est = model.value().Density(q, 0.2);
    const double sota_est = sota.value().Density(q, 0.2);
    EXPECT_NEAR(karl_est, exact, 0.2 * exact + 1e-15);
    EXPECT_NEAR(sota_est, exact, 0.2 * exact + 1e-15);
    EXPECT_EQ(model.value().DensityAbove(q, exact * 0.95), true);
    EXPECT_EQ(sota.value().DensityAbove(q, exact * 0.95), true);
  }
}

// Type-II pipeline: one-class SVM training → engine → TKAQ decisions
// match the sequential-scan SVM prediction on every query.
TEST(IntegrationTest, TypeTwoOneClassPipeline) {
  util::Rng rng(2);
  const auto ds = data::MakeOneClassDataset(300, 60, 5, rng);

  // Train only on the inliers, as an anomaly detector would.
  std::vector<size_t> inlier_rows;
  for (size_t i = 0; i < ds.labels.size(); ++i) {
    if (ds.labels[i] > 0) inlier_rows.push_back(i);
  }
  const data::Matrix train = ds.points.SelectRows(inlier_rows);
  ml::OneClassSvmParams params;
  params.nu = 0.1;
  const auto kernel = KernelParams::Gaussian(1.0 / 5.0);  // LIBSVM default 1/d.
  auto model = ml::TrainOneClassSvm(train, kernel, params);
  ASSERT_TRUE(model.ok());

  EngineOptions options;
  options.leaf_capacity = 16;
  double tau = 0.0;
  auto engine = ml::MakeEngineFromSvm(model.value(), options, &tau);
  ASSERT_TRUE(engine.ok());

  for (size_t i = 0; i < ds.points.rows(); i += 7) {
    const auto q = ds.points.Row(i);
    EXPECT_EQ(engine.value().Tkaq(q, tau),
              ml::SvmDecision(model.value(), q) > 0.0)
        << "row " << i;
  }
}

// Type-III pipeline: 2-class SVM model → save/load → engine → TKAQ
// decisions match scan on random queries.
TEST(IntegrationTest, TypeThreeTwoClassPipelineWithModelIo) {
  util::Rng rng(3);
  const ml::SvmModel built = test::MixedSignSvmModel(
      KernelParams::Gaussian(1.0 / 4.0), 150, 4, 0.0, 1.0, 3);

  // Round-trip the model through its serialised form first.
  auto model = ml::ParseSvmModel(ml::WriteSvmModel(built));
  ASSERT_TRUE(model.ok());

  EngineOptions options;
  double tau = 0.0;
  auto engine = ml::MakeEngineFromSvm(model.value(), options, &tau);
  ASSERT_TRUE(engine.ok());

  size_t agreements = 0;
  size_t positive = 0;
  const size_t checks = 60;
  for (size_t i = 0; i < checks; ++i) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const bool engine_dec = engine.value().Tkaq(q, tau);
    const bool scan_dec = ml::SvmDecision(model.value(), q) > 0.0;
    agreements += engine_dec == scan_dec;
    positive += scan_dec;
  }
  EXPECT_EQ(agreements, checks);
  EXPECT_GT(positive, 0u);
  EXPECT_LT(positive, checks);
}

// Offline tuning pipeline: the recommended config's engine answers
// queries identically to a default engine (tuning changes speed, never
// answers).
TEST(IntegrationTest, TuningPreservesAnswers) {
  util::Rng rng(4);
  const data::Matrix pts = data::SampleClustered(2000, 3, 4, 0.06, rng);
  std::vector<double> weights(pts.rows(), 1.0);
  const auto qrows = rng.SampleWithoutReplacement(pts.rows(), 30);
  const data::Matrix queries = pts.SelectRows(qrows);

  EngineOptions base;
  base.kernel = KernelParams::Gaussian(8.0);

  core::QuerySpec spec;
  spec.kind = core::QuerySpec::Kind::kThreshold;
  spec.tau = 20.0;
  auto tuned = core::OfflineTune(pts, weights, base, queries, spec,
                                 core::DefaultTuningGrid());
  ASSERT_TRUE(tuned.ok());

  EngineOptions tuned_options = base;
  tuned_options.index_kind = tuned.value().best.kind;
  tuned_options.leaf_capacity = tuned.value().best.leaf_capacity;
  auto tuned_engine = Engine::Build(pts, weights, tuned_options).ValueOrDie();
  auto default_engine = Engine::Build(pts, weights, base).ValueOrDie();

  for (size_t i = 0; i < queries.rows(); ++i) {
    const auto q = queries.Row(i);
    EXPECT_EQ(tuned_engine.Tkaq(q, spec.tau), default_engine.Tkaq(q, spec.tau));
  }
}

// Fig-12 style pipeline: PCA-project a high-dimensional dataset and
// verify queries stay consistent with brute force in the reduced space.
TEST(IntegrationTest, PcaReductionPipeline) {
  util::Rng rng(5);
  const data::Matrix pts = data::SampleClustered(800, 32, 5, 0.05, rng);
  auto pca = data::PcaModel::Fit(pts);
  ASSERT_TRUE(pca.ok());

  for (const size_t k : {4u, 8u, 16u}) {
    auto reduced = pca.value().Project(pts, k);
    ASSERT_TRUE(reduced.ok());
    const data::Matrix& rp = reduced.value();

    EngineOptions options;
    options.kernel = KernelParams::Gaussian(2.0);
    auto engine = Engine::BuildUniform(rp, 1.0, options).ValueOrDie();

    std::vector<double> weights(rp.rows(), 1.0);
    for (int trial = 0; trial < 5; ++trial) {
      const auto qspan = rp.Row(rng.UniformInt(rp.rows()));
      const std::vector<double> q(qspan.begin(), qspan.end());
      const double exact =
          core::ExactAggregate(rp, weights, options.kernel, q);
      EXPECT_EQ(engine.Tkaq(q, exact * 0.9), true);
      EXPECT_EQ(engine.Tkaq(q, exact * 1.1), false);
    }
  }
}

// Polynomial-kernel pipeline over [-1,1]^d data (§V-F).
TEST(IntegrationTest, PolynomialKernelPipeline) {
  util::Rng rng(6);
  const auto kernel = KernelParams::Polynomial(1.0 / 4.0, 0.0, 3);
  const ml::SvmModel model =
      test::MixedSignSvmModel(kernel, 150, 4, -1.0, 1.0, 6);

  EngineOptions options;
  double tau = 0.0;
  auto engine = ml::MakeEngineFromSvm(model, options, &tau);
  ASSERT_TRUE(engine.ok());

  int positive = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> q(4);
    for (auto& v : q) v = rng.Uniform(-1.0, 1.0);
    const bool scan_decision = ml::SvmDecision(model, q) > 0.0;
    positive += scan_decision;
    EXPECT_EQ(engine.value().Tkaq(q, tau), scan_decision);
  }
  EXPECT_GT(positive, 0);
  EXPECT_LT(positive, 40);
}

// The in-situ path returns the same decisions as an offline engine.
TEST(IntegrationTest, InsituDecisionsMatchOffline) {
  util::Rng rng(7);
  const data::Matrix pts = data::SampleClustered(1500, 3, 3, 0.07, rng);
  std::vector<double> weights(pts.rows(), 1.0);
  const auto kernel = KernelParams::Gaussian(6.0);

  // Level-capped evaluators must agree with the full evaluator for every
  // cap — this is the correctness core of the in-situ tuner.
  EngineOptions options;
  options.kernel = kernel;
  options.leaf_capacity = 4;
  auto engine = Engine::Build(pts, weights, options).ValueOrDie();

  const double tau = 10.0;
  for (const int level : {2, 4, 6}) {
    core::Evaluator::Options eval_options;
    eval_options.max_level = level;
    auto capped = core::Evaluator::Create(&engine.plus_tree(), nullptr,
                                          kernel, eval_options)
                      .ValueOrDie();
    for (int trial = 0; trial < 10; ++trial) {
      std::vector<double> q(3);
      for (auto& v : q) v = rng.Uniform(0.0, 1.0);
      EXPECT_EQ(capped.QueryThreshold(q, tau), engine.Tkaq(q, tau))
          << "level " << level;
    }
  }
}

// Dataset registry → engines across every benchmark dataset at small n.
TEST(IntegrationTest, AllRegistryDatasetsBuildAndQuery) {
  for (const auto& base_spec : data::BenchmarkDatasets()) {
    data::DatasetSpec spec = base_spec;
    spec.n = 400;
    if (spec.d > 128) continue;  // mnist-like is covered elsewhere.
    const data::Matrix pts = data::MakeUciLike(spec);
    EngineOptions options;
    options.kernel = KernelParams::Gaussian(1.0 / static_cast<double>(spec.d));
    auto engine = Engine::BuildUniform(pts, 1.0, options);
    ASSERT_TRUE(engine.ok()) << spec.name;
    const std::vector<double> q(spec.d, 0.5);
    const double exact = engine.value().Exact(q);
    EXPECT_EQ(engine.value().Tkaq(q, exact * 0.5), exact > exact * 0.5)
        << spec.name;
  }
}

}  // namespace
}  // namespace karl
