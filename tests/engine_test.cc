// Tests for the karl::Engine facade: weighting detection, Type III
// splitting, the query surface, and option plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/karl.h"
#include "data/synthetic.h"
#include "util/rng.h"

namespace karl {
namespace {

using core::BoundKind;
using core::KernelParams;

EngineOptions GaussianOptions(double gamma) {
  EngineOptions options;
  options.kernel = KernelParams::Gaussian(gamma);
  options.leaf_capacity = 16;
  return options;
}

TEST(ClassifyWeightsTest, TypeTaxonomy) {
  EXPECT_EQ(ClassifyWeights(std::vector<double>{1.0, 1.0, 1.0}),
            WeightingType::kTypeI);
  EXPECT_EQ(ClassifyWeights(std::vector<double>{0.5, 1.0, 2.0}),
            WeightingType::kTypeII);
  EXPECT_EQ(ClassifyWeights(std::vector<double>{0.5, -1.0, 2.0}),
            WeightingType::kTypeIII);
}

TEST(ClassifyWeightsTest, Names) {
  EXPECT_EQ(WeightingTypeToString(WeightingType::kTypeI), "I");
  EXPECT_EQ(WeightingTypeToString(WeightingType::kTypeII), "II");
  EXPECT_EQ(WeightingTypeToString(WeightingType::kTypeIII), "III");
}

TEST(EngineTest, BuildRejectsEmptyData) {
  data::Matrix empty;
  std::vector<double> weights;
  EXPECT_FALSE(Engine::Build(empty, weights, GaussianOptions(1.0)).ok());
}

TEST(EngineTest, BuildRejectsMismatchedWeights) {
  data::Matrix pts(3, 2);
  std::vector<double> weights(2, 1.0);
  EXPECT_FALSE(Engine::Build(pts, weights, GaussianOptions(1.0)).ok());
}

TEST(EngineTest, BuildRejectsInvalidKernel) {
  data::Matrix pts(3, 2);
  std::vector<double> weights(3, 1.0);
  EXPECT_FALSE(Engine::Build(pts, weights, GaussianOptions(-1.0)).ok());
}

TEST(EngineTest, BuildRejectsAllNonPositiveWeights) {
  data::Matrix pts(3, 2);
  std::vector<double> weights(3, -1.0);
  EXPECT_FALSE(Engine::Build(pts, weights, GaussianOptions(1.0)).ok());
}

TEST(EngineTest, BuildUniformRejectsNonPositiveWeight) {
  data::Matrix pts(3, 2);
  EXPECT_FALSE(Engine::BuildUniform(pts, 0.0, GaussianOptions(1.0)).ok());
}

// A non-finite weight or coordinate is refused where it enters, naming
// its row (and column). Unchecked, a NaN weight would drop its point as
// neither positive nor negative, and a non-finite coordinate would build
// an engine whose snapshot can never attach.
TEST(EngineTest, BuildRejectsNonFiniteInputNamingRowAndColumn) {
  util::Rng rng(9);
  const data::Matrix clean = data::SampleUniform(100, 3, 0.0, 1.0, rng);
  std::vector<double> mixed(100);
  for (size_t i = 0; i < mixed.size(); ++i) mixed[i] = i % 3 ? 1.0 : -0.5;
  const auto expect_refused = [](const util::Result<Engine>& built,
                                 const std::string& where) {
    ASSERT_FALSE(built.ok()) << where;
    EXPECT_EQ(built.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(built.status().message().find(where), std::string::npos)
        << built.status().message();
  };
  for (const double bad : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    for (const auto kind :
         {index::IndexKind::kKdTree, index::IndexKind::kBallTree}) {
      EngineOptions options = GaussianOptions(1.0);
      options.index_kind = kind;
      // Weights: Types II and III.
      for (std::vector<double> w : {std::vector<double>(100, 1.0), mixed}) {
        w[41] = bad;
        expect_refused(Engine::Build(clean, w, options), "at row 41");
      }
      // Coordinates: Type I indexes them as given, Type III through
      // copies; either way the caller's row is named.
      data::Matrix pts = clean;
      pts(57, 2) = bad;
      expect_refused(Engine::Build(pts, std::vector<double>(100, 1.0),
                                   options),
                     "at row 57, column 2");
      expect_refused(Engine::Build(pts, mixed, options),
                     "at row 57, column 2");
      expect_refused(Engine::BuildUniform(pts, 1.0, options),
                     "at row 57, column 2");
      EXPECT_FALSE(Engine::BuildUniform(clean, bad, options).ok());
    }
  }
}

TEST(EngineTest, DetectsWeightingTypes) {
  util::Rng rng(1);
  const data::Matrix pts = data::SampleUniform(50, 3, 0.0, 1.0, rng);

  auto e1 = Engine::BuildUniform(pts, 1.0, GaussianOptions(1.0));
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(e1.value().weighting_type(), WeightingType::kTypeI);
  EXPECT_EQ(e1.value().minus_tree(), nullptr);

  std::vector<double> w2(50);
  for (auto& w : w2) w = rng.Uniform(0.1, 2.0);
  auto e2 = Engine::Build(pts, w2, GaussianOptions(1.0));
  ASSERT_TRUE(e2.ok());
  EXPECT_EQ(e2.value().weighting_type(), WeightingType::kTypeII);
  EXPECT_EQ(e2.value().minus_tree(), nullptr);

  std::vector<double> w3(50);
  for (auto& w : w3) w = rng.Uniform(-1.0, 1.0);
  w3[0] = -0.5;  // Ensure at least one negative.
  auto e3 = Engine::Build(pts, w3, GaussianOptions(1.0));
  ASSERT_TRUE(e3.ok());
  EXPECT_EQ(e3.value().weighting_type(), WeightingType::kTypeIII);
  EXPECT_NE(e3.value().minus_tree(), nullptr);
}

TEST(EngineTest, ZeroWeightPointsAreDropped) {
  util::Rng rng(2);
  const data::Matrix pts = data::SampleUniform(20, 2, 0.0, 1.0, rng);
  std::vector<double> weights(20, 1.0);
  weights[3] = 0.0;
  weights[7] = 0.0;
  auto engine = Engine::Build(pts, weights, GaussianOptions(1.0));
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value().plus_tree().points().rows(), 18u);
}

TEST(EngineTest, ExactMatchesBruteForceAllTypes) {
  util::Rng rng(3);
  const data::Matrix pts = data::SampleClustered(200, 4, 3, 0.1, rng);

  std::vector<std::vector<double>> weightings;
  weightings.emplace_back(200, 0.5);  // Type I.
  std::vector<double> w2(200);
  for (auto& w : w2) w = rng.Uniform(0.1, 1.0);
  weightings.push_back(w2);  // Type II.
  std::vector<double> w3(200);
  for (auto& w : w3) w = rng.Uniform(-1.0, 1.0);
  weightings.push_back(w3);  // Type III.

  for (const auto& weights : weightings) {
    auto engine = Engine::Build(pts, weights, GaussianOptions(3.0));
    ASSERT_TRUE(engine.ok());
    for (int trial = 0; trial < 5; ++trial) {
      std::vector<double> q(4);
      for (auto& v : q) v = rng.Uniform(0.0, 1.0);
      const double brute = core::ExactAggregate(
          pts, weights, KernelParams::Gaussian(3.0), q);
      EXPECT_NEAR(engine.value().Exact(q), brute, 1e-9);
    }
  }
}

TEST(EngineTest, TkaqAndEkaqConsistentWithExact) {
  util::Rng rng(4);
  const data::Matrix pts = data::SampleClustered(300, 3, 3, 0.08, rng);
  auto engine = Engine::BuildUniform(pts, 1.0, GaussianOptions(4.0));
  ASSERT_TRUE(engine.ok());

  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> q(3);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const double exact = engine.value().Exact(q);
    EXPECT_TRUE(engine.value().Tkaq(q, exact * 0.9));
    EXPECT_FALSE(engine.value().Tkaq(q, exact * 1.1));
    const double approx = engine.value().Ekaq(q, 0.2);
    EXPECT_GE(approx, 0.8 * exact - 1e-12);
    EXPECT_LE(approx, 1.2 * exact + 1e-12);
  }
}

TEST(EngineTest, BallTreeOptionRespected) {
  util::Rng rng(5);
  const data::Matrix pts = data::SampleUniform(100, 3, 0.0, 1.0, rng);
  EngineOptions options = GaussianOptions(2.0);
  options.index_kind = index::IndexKind::kBallTree;
  auto engine = Engine::BuildUniform(pts, 1.0, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value().plus_tree().kind(), index::IndexKind::kBallTree);
}

TEST(EngineTest, LeafCapacityRespected) {
  util::Rng rng(6);
  const data::Matrix pts = data::SampleUniform(500, 2, 0.0, 1.0, rng);
  EngineOptions options = GaussianOptions(2.0);
  options.leaf_capacity = 10;
  auto engine = Engine::BuildUniform(pts, 1.0, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value().plus_tree().leaf_capacity(), 10u);
}

TEST(EngineTest, SotaBoundOptionRespected) {
  util::Rng rng(7);
  const data::Matrix pts = data::SampleUniform(100, 2, 0.0, 1.0, rng);
  EngineOptions options = GaussianOptions(2.0);
  options.bounds = BoundKind::kSota;
  auto engine = Engine::BuildUniform(pts, 1.0, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine.value().evaluator().options().bounds, BoundKind::kSota);
  // And it still answers correctly.
  const std::vector<double> q(2, 0.5);
  const double exact = engine.value().Exact(q);
  EXPECT_TRUE(engine.value().Tkaq(q, exact - 0.01));
}

TEST(EngineTest, MemoryUsageGrowsWithData) {
  util::Rng rng(8);
  const data::Matrix small = data::SampleUniform(50, 3, 0.0, 1.0, rng);
  const data::Matrix large = data::SampleUniform(5000, 3, 0.0, 1.0, rng);
  auto e_small = Engine::BuildUniform(small, 1.0, GaussianOptions(1.0));
  auto e_large = Engine::BuildUniform(large, 1.0, GaussianOptions(1.0));
  ASSERT_TRUE(e_small.ok());
  ASSERT_TRUE(e_large.ok());
  EXPECT_GT(e_large.value().MemoryUsageBytes(),
            10 * e_small.value().MemoryUsageBytes());
}

TEST(EngineTest, MoveSemanticsKeepEngineUsable) {
  util::Rng rng(9);
  const data::Matrix pts = data::SampleUniform(100, 2, 0.0, 1.0, rng);
  auto built = Engine::BuildUniform(pts, 1.0, GaussianOptions(2.0));
  ASSERT_TRUE(built.ok());
  Engine engine = std::move(built).ValueOrDie();
  Engine moved = std::move(engine);
  const std::vector<double> q(2, 0.5);
  const double exact = moved.Exact(q);
  EXPECT_TRUE(moved.Tkaq(q, exact * 0.5));
}

TEST(EngineTest, TypeIIIThresholdAroundZero) {
  // Signed aggregates cross zero; TKAQ at τ=0 is the SVM decision case.
  util::Rng rng(10);
  const data::Matrix pts = data::SampleClustered(200, 3, 2, 0.1, rng);
  std::vector<double> weights(200);
  for (auto& w : weights) w = rng.Uniform(-1.0, 1.0);
  auto engine = Engine::Build(pts, weights, GaussianOptions(2.0));
  ASSERT_TRUE(engine.ok());

  size_t above = 0, below = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> q(3);
    for (auto& v : q) v = rng.Uniform(0.0, 1.0);
    const double exact = engine.value().Exact(q);
    const bool decision = engine.value().Tkaq(q, 0.0);
    EXPECT_EQ(decision, exact > 0.0);
    (decision ? above : below) += 1;
  }
  // The workload actually exercises both branches.
  EXPECT_GT(above + below, 0u);
}

}  // namespace
}  // namespace karl
