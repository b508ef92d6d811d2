// Principal frames (index/principal_frame.h, DESIGN.md §17): the fit,
// which trees get one, the tier-identical reflection kernel, and that an
// engine built in a frame still answers for the caller's coordinates.

#include "index/principal_frame.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/karl.h"
#include "core/simd/simd.h"
#include "data/synthetic.h"
#include "index/kd_tree.h"
#include "registry/snapshot.h"
#include "util/rng.h"

namespace karl {
namespace {

namespace simd = core::simd;

// Points near a random 2-d plane through a random offset, embedded in d
// dimensions: the oblique shape a principal frame straightens.
data::Matrix ObliquePoints(size_t n, size_t d, uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> a(d), b(d), offset(d);
  for (size_t j = 0; j < d; ++j) {
    a[j] = rng.Gaussian(0.0, 1.0);
    b[j] = rng.Gaussian(0.0, 1.0);
    offset[j] = rng.Uniform(-1.0, 1.0);
  }
  data::Matrix m(n, d);
  for (size_t i = 0; i < n; ++i) {
    const double s = rng.Gaussian(0.0, 1.0);
    const double t = rng.Gaussian(0.0, 0.3);
    auto row = m.MutableRow(i);
    for (size_t j = 0; j < d; ++j) {
      row[j] = offset[j] + s * a[j] + t * b[j] + rng.Gaussian(0.0, 0.01);
    }
  }
  return m;
}

std::vector<simd::Tier> SupportedTiers() {
  std::vector<simd::Tier> tiers;
  for (const simd::Tier tier :
       {simd::Tier::kScalar, simd::Tier::kAvx2, simd::Tier::kAvx512}) {
    if (simd::TierSupported(tier)) tiers.push_back(tier);
  }
  return tiers;
}

// Restores the active SIMD tier when a test that forces tiers ends.
class TierGuard {
 public:
  TierGuard() : saved_(simd::ActiveTier()) {}
  ~TierGuard() { simd::ForceTier(saved_); }

 private:
  simd::Tier saved_;
};

TEST(PrincipalFrameTest, FitOnObliqueDataHasUnitReflectorsAndShrinksExtents) {
  for (const size_t d : {2, 3, 10, 54, 64}) {
    SCOPED_TRACE(d);
    const data::Matrix points = ObliquePoints(3000, d, 11 + d);
    const index::Frame frame = index::FitPrincipalFrame(points);
    EXPECT_LT(frame.extent_ratio, 1.0);
    const size_t axes =
        std::min(index::kFrameAxes, (d + index::kDimsPerFrameAxis - 1) /
                                        index::kDimsPerFrameAxis);
    ASSERT_EQ(frame.reflectors.size(), axes * d);
    for (size_t r = 0; r < axes; ++r) {
      EXPECT_LE(index::FrameReflectorNormError(
                    std::span(frame.reflectors).subspan(r * d, d)),
                index::FrameReflectorNormTolerance(d))
          << "reflector " << r;
    }
    // The first axis is the data's long direction: the sample's variance
    // along it is the largest of any axis.
    std::vector<double> rotated(points.rows() * d);
    simd::ReflectRows(frame.reflectors, d, points.Row(0).data(),
                      points.rows(), rotated.data());
    std::vector<double> var(d, 0.0), mean(d, 0.0);
    for (size_t i = 0; i < points.rows(); ++i) {
      for (size_t j = 0; j < d; ++j) mean[j] += rotated[i * d + j];
    }
    for (double& m : mean) m /= static_cast<double>(points.rows());
    for (size_t i = 0; i < points.rows(); ++i) {
      for (size_t j = 0; j < d; ++j) {
        const double x = rotated[i * d + j] - mean[j];
        var[j] += x * x;
      }
    }
    for (size_t j = 1; j < d; ++j) EXPECT_GE(var[0], var[j]) << "axis " << j;
  }
}

TEST(PrincipalFrameTest, IsotropicAndAxisAlignedDataKeepTheIdentity) {
  util::Rng rng(3);
  // A uniform cube: any rotation only fattens its boxes.
  const data::Matrix cube = data::SampleUniform(4000, 8, -1.0, 1.0, rng);
  const index::Frame cube_frame = index::FitPrincipalFrame(cube);
  EXPECT_TRUE(cube_frame.reflectors.empty());
  EXPECT_GE(cube_frame.extent_ratio, 1.0);
  // An axis-aligned box with distinct widths: already principal, and any
  // rotation adds to its summed extent (each row of T has an L1 norm of
  // at least 1).
  data::Matrix aligned(4000, 5);
  for (size_t i = 0; i < aligned.rows(); ++i) {
    for (size_t j = 0; j < aligned.cols(); ++j) {
      aligned(i, j) = rng.Uniform(0.0, 1.0 + static_cast<double>(j));
    }
  }
  EXPECT_TRUE(index::FitPrincipalFrame(aligned).reflectors.empty());
  // A non-finite sample value: no frame; the build then names the value.
  data::Matrix bad = ObliquePoints(100, 4, 5);
  bad(0, 2) = std::nan("");
  EXPECT_TRUE(index::FitPrincipalFrame(bad).reflectors.empty());
  // Values whose scatter overflows: no frame, and a ratio a snapshot
  // header can carry.
  data::Matrix huge = ObliquePoints(100, 4, 6);
  for (size_t i = 0; i < huge.rows(); ++i) {
    for (double& v : huge.MutableRow(i)) v *= 1e200;
  }
  const index::Frame huge_frame = index::FitPrincipalFrame(huge);
  EXPECT_TRUE(huge_frame.reflectors.empty());
  EXPECT_TRUE(std::isfinite(huge_frame.extent_ratio));
}

TEST(PrincipalFrameTest, OnlyKdTreesFromTwoToSixtyFourDimensionsTakeAFrame) {
  EXPECT_FALSE(index::TakesPrincipalFrame(index::IndexKind::kKdTree, 1));
  EXPECT_TRUE(index::TakesPrincipalFrame(index::IndexKind::kKdTree, 2));
  EXPECT_TRUE(index::TakesPrincipalFrame(index::IndexKind::kKdTree, 64));
  EXPECT_FALSE(index::TakesPrincipalFrame(index::IndexKind::kKdTree, 65));
  EXPECT_FALSE(index::TakesPrincipalFrame(index::IndexKind::kBallTree, 10));

  const data::Matrix points = ObliquePoints(800, 6, 7);
  std::vector<double> weights(points.rows());
  util::Rng rng(8);
  for (double& w : weights) w = rng.Uniform(-1.0, 1.0);
  EngineOptions options;
  options.kernel = core::KernelParams::Gaussian(0.5);
  options.leaf_capacity = 20;
  auto kd = Engine::Build(points, weights, options);
  ASSERT_TRUE(kd.ok()) << kd.status().ToString();
  // Type III: one frame, fitted on every point, in both trees.
  ASSERT_NE(kd.value().minus_tree(), nullptr);
  // d = 6 takes ⌈6/5⌉ = 2 reflectors.
  EXPECT_EQ(kd.value().plus_tree().frame().size(), 12u);
  EXPECT_TRUE(std::ranges::equal(kd.value().plus_tree().frame(),
                                 kd.value().minus_tree()->frame()));
  EXPECT_LT(kd.value().plus_tree().frame_extent_ratio(), 1.0);

  options.index_kind = index::IndexKind::kBallTree;
  auto ball = Engine::Build(points, weights, options);
  ASSERT_TRUE(ball.ok()) << ball.status().ToString();
  EXPECT_TRUE(ball.value().plus_tree().frame().empty());
  EXPECT_EQ(ball.value().plus_tree().frame_extent_ratio(), 1.0);
}

TEST(PrincipalFrameTest, EvaluatorRefusesTreesInDifferentFrames) {
  const data::Matrix points = ObliquePoints(300, 5, 9);
  const std::vector<double> weights(points.rows(), 1.0);
  auto framed = index::KdTree::Build(points, weights, 16,
                                     index::FitPrincipalFrame(points));
  auto plain = index::KdTree::Build(points, weights, 16);
  ASSERT_TRUE(framed.ok() && plain.ok());
  auto ev = core::Evaluator::Create(framed.value().get(), plain.value().get(),
                                    core::KernelParams::Gaussian(1.0), {});
  ASSERT_FALSE(ev.ok());
  EXPECT_NE(ev.status().message().find("different frames"), std::string::npos)
      << ev.status().ToString();
}

TEST(PrincipalFrameTest, ReflectionKernelWritesTheSameBitsOnEveryTier) {
  TierGuard guard;
  util::Rng rng(21);
  for (const size_t d : {1, 2, 3, 7, 8, 9, 10, 16, 17, 50, 54, 63, 64}) {
    SCOPED_TRACE(d);
    const size_t rows = 37;  // Not a multiple of any step.
    std::vector<double> in(rows * d);
    for (double& x : in) x = rng.Uniform(-3.0, 3.0);
    in[0] = -0.0;  // Signed zeros must come out the same too.
    std::vector<double> v;
    if (d >= 2) v = index::FitPrincipalFrame(ObliquePoints(200, d, d)).reflectors;
    if (v.empty()) {
      v.assign(d, 0.0);
      v[0] = 1.0;
    }
    simd::ForceTier(simd::Tier::kScalar);
    std::vector<double> want(rows * d);
    simd::ReflectRows(v, d, in.data(), rows, want.data());
    for (const simd::Tier tier : SupportedTiers()) {
      SCOPED_TRACE(simd::TierName(tier));
      simd::ForceTier(tier);
      std::vector<double> got(rows * d);
      simd::ReflectRows(v, d, in.data(), rows, got.data());
      EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                               got.size() * sizeof(double)));
    }
  }
}

// The reflections make an orthonormal map: inner products, and so
// distances, come through to within rounding.
TEST(PrincipalFrameTest, ReflectionsKeepInnerProducts) {
  const size_t d = 12;
  const data::Matrix points = ObliquePoints(500, d, 31);
  const index::Frame frame = index::FitPrincipalFrame(points);
  ASSERT_FALSE(frame.reflectors.empty());
  std::vector<double> reflected(points.rows() * d);
  simd::ReflectRows(frame.reflectors, d, points.Row(0).data(), points.rows(),
                    reflected.data());
  for (size_t i = 0; i + 1 < points.rows(); i += 7) {
    const auto a = points.Row(i);
    const auto b = points.Row(i + 1);
    double want = 0.0, got = 0.0, aa = 0.0, bb = 0.0;
    for (size_t j = 0; j < d; ++j) {
      want += a[j] * b[j];
      got += reflected[i * d + j] * reflected[(i + 1) * d + j];
      aa += a[j] * a[j];
      bb += b[j] * b[j];
    }
    EXPECT_NEAR(got, want, 1e-13 * std::sqrt(aa * bb))
        << "rows " << i << ", " << i + 1;
  }
}

// For an engine in a principal frame, TKAQ decides as an exact scan of
// the caller's points does whenever τ is more than 1e-12 relative from F.
TEST(PrincipalFrameTest, FramedTkaqMatchesAnExactScanOfTheCallersPoints) {
  for (const int type : {1, 2, 3}) {
    SCOPED_TRACE(type);
    const data::Matrix points = ObliquePoints(1500, 9, 40 + type);
    util::Rng rng(50 + type);
    std::vector<double> weights(points.rows());
    for (double& w : weights) {
      w = type == 1 ? 1.0 : (type == 2 ? rng.Uniform(0.1, 1.0)
                                       : rng.Uniform(-1.0, 1.0));
    }
    EngineOptions options;
    options.kernel = core::KernelParams::Gaussian(2.0);
    options.leaf_capacity = 24;
    auto engine = Engine::Build(points, weights, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_FALSE(engine.value().plus_tree().frame().empty());
    for (size_t i = 0; i < 40; ++i) {
      std::vector<double> q(points.cols());
      const auto base = points.Row((i * 37) % points.rows());
      for (size_t j = 0; j < q.size(); ++j) {
        q[j] = base[j] + rng.Gaussian(0.0, 0.2);
      }
      const double f =
          core::ExactAggregate(points, weights, options.kernel, q);
      for (const double rel :
           {-0.5, -1e-3, -1e-9, -1e-11, -1e-12, 1e-12, 1e-11, 1e-9, 1e-3,
            0.5}) {
        const double tau = f + rel * std::max(std::abs(f), 1e-300);
        EXPECT_EQ(engine.value().Tkaq(q, tau), f > tau)
            << "query " << i << " F=" << f << " tau=" << tau;
      }
      EXPECT_NEAR(engine.value().Exact(q), f, 1e-12 * (1.0 + std::abs(f)));
    }
  }
}

TEST(PrincipalFrameDeathTest, QueryOfTheWrongWidthIsRefused) {
  const data::Matrix points = ObliquePoints(200, 3, 61);
  EngineOptions options;
  options.kernel = core::KernelParams::Gaussian(1.0);
  auto engine = Engine::BuildUniform(points, 1.0, options);
  ASSERT_TRUE(engine.ok());
  const std::vector<double> narrow = {0.1, 0.2};
  const std::vector<double> wide = {0.1, 0.2, 0.3, 0.4};
  EXPECT_DEATH(engine.value().Exact(narrow), "query has 2 values");
  EXPECT_DEATH(engine.value().Tkaq(wide, 0.5), "query has 4 values");
  EXPECT_DEATH(engine.value().Ekaq(narrow, 0.1), "index 3 dimensions");
}

std::string SnapshotBytes(const Engine& engine, const std::string& path) {
  EXPECT_TRUE(registry::WriteSnapshot(path, engine).ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  return bytes;
}

// The build's one vectorized step writes the same bits on every tier, so
// a framed engine's snapshot does not depend on the tier that built it,
// and an engine attached from it answers as the built one does.
TEST(PrincipalFrameTest, FramedSnapshotBytesAreTheSameOnEveryTier) {
  TierGuard guard;
  const data::Matrix points = ObliquePoints(2003, 54, 71);
  util::Rng rng(72);
  std::vector<double> weights(points.rows());
  for (double& w : weights) w = rng.Uniform(-1.0, 1.0);
  EngineOptions options;
  options.kernel = core::KernelParams::Gaussian(0.3);
  options.leaf_capacity = 33;
  const std::string path =
      ::testing::TempDir() + "/principal_frame_tiers.snap";
  std::string want;
  for (const simd::Tier tier : SupportedTiers()) {
    SCOPED_TRACE(simd::TierName(tier));
    simd::ForceTier(tier);
    auto engine = Engine::Build(points, weights, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_FALSE(engine.value().plus_tree().frame().empty());
    const std::string bytes = SnapshotBytes(engine.value(), path);
    if (want.empty()) {
      want = bytes;
    } else {
      EXPECT_TRUE(bytes == want) << "snapshot bytes differ from scalar's";
    }
    // Built and attached answer bit for bit under the same tier.
    ASSERT_TRUE(registry::WriteSnapshot(path, engine.value()).ok());
    auto mapped = registry::MappedSnapshot::Map(path);
    ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto attached = registry::AttachEngine(mapped.value(), nullptr, nullptr);
    ASSERT_TRUE(attached.ok()) << attached.status().ToString();
    for (size_t i = 0; i < 10; ++i) {
      const auto q = points.Row(i * 101);
      EXPECT_EQ(attached.value().Exact(q), engine.value().Exact(q));
      EXPECT_EQ(attached.value().Tkaq(q, 0.0), engine.value().Tkaq(q, 0.0));
    }
    std::filesystem::remove(path);
  }
}

}  // namespace
}  // namespace karl
