// Pins the index builder's output byte for byte: builds seeded inputs
// through Engine::Build, writes each engine as a snapshot and compares
// the file's XXH64 with a recorded digest. A snapshot holds every array
// a build produces (the frame, nodes, SoA blocks, permutation,
// aggregates, regions), so any change to the frame fit, the split order,
// a summation order or a fitted region shows up here, on every SIMD
// tier alike. The digests change only with a deliberate change to the
// tree layout or the snapshot format.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/karl.h"
#include "registry/snapshot.h"
#include "util/rng.h"

namespace karl {
namespace {

enum class Points {
  kUniform,     // Uniform in [-1, 1)^d.
  kTied,        // Each coordinate one of 5 values: tied split keys.
  kDuplicated,  // 7 distinct points, each repeated.
  kIdentical,   // Every point the same: the root stays a leaf.
};

enum class Weights {
  kTypeI,      // All 0.5.
  kTypeII,     // Uniform in [0.1, 2).
  kTypeIII,    // Uniform in [-1, 1): both trees.
  kSomeZero,   // Positive with every 5th weight 0 (dropped rows).
};

struct GoldenCase {
  const char* name;
  index::IndexKind kind;
  size_t capacity;
  size_t n;
  size_t d;
  Points points;
  Weights weights;
  uint64_t digest;  // XXH64 of the snapshot file.
};

constexpr auto kKd = index::IndexKind::kKdTree;
constexpr auto kBall = index::IndexKind::kBallTree;

const GoldenCase kCases[] = {
    {"kd_I_c1_n50_d1_dup", kKd, 1, 50, 1, Points::kDuplicated,
     Weights::kTypeI, 0x49eca80f2c4ad018},
    {"kd_II_c10_n1000_d10", kKd, 10, 1000, 10, Points::kUniform,
     Weights::kTypeII, 0xff7984e9507b059e},
    {"kd_III_c33_n2003_d54", kKd, 33, 2003, 54, Points::kUniform,
     Weights::kTypeIII, 0xf6b4ebbf9a275cdd},
    {"kd_I_c80_n20000_d10", kKd, 80, 20000, 10, Points::kUniform,
     Weights::kTypeI, 0x61994acb43a7c068},
    {"kd_II_c80_n50_d10_below_capacity", kKd, 80, 50, 10, Points::kUniform,
     Weights::kTypeII, 0x23ba2a7a2d50e8cf},
    {"kd_III_c1_n517_d10_tied", kKd, 1, 517, 10, Points::kTied,
     Weights::kTypeIII, 0x98fc19e0e80af601},
    {"kd_II_c10_n777_d3_tied", kKd, 10, 777, 3, Points::kTied,
     Weights::kTypeII, 0x33445b1fbf19705f},
    {"kd_I_c33_n100_d10_identical", kKd, 33, 100, 10, Points::kIdentical,
     Weights::kTypeI, 0xc00285e43824a56a},
    {"kd_zero_c10_n403_d54_dup", kKd, 10, 403, 54, Points::kDuplicated,
     Weights::kSomeZero, 0x8ec1a6be2bccd76c},
    {"ball_I_c1_n300_d10", kBall, 1, 300, 10, Points::kUniform,
     Weights::kTypeI, 0x36dbbe2585cd60c8},
    {"ball_II_c10_n2001_d1", kBall, 10, 2001, 1, Points::kUniform,
     Weights::kTypeII, 0x711b3401eb8c28ea},
    {"ball_III_c33_n1500_d54", kBall, 33, 1500, 54, Points::kUniform,
     Weights::kTypeIII, 0x381111249e49dc07},
    {"ball_I_c80_n20000_d10", kBall, 80, 20000, 10, Points::kUniform,
     Weights::kTypeI, 0x80fc3fc1175a43c5},
    {"ball_II_c80_n60_d54_below_capacity", kBall, 80, 60, 54,
     Points::kUniform, Weights::kTypeII, 0xf01f4d464abeecee},
    {"ball_III_c10_n999_d4_tied", kBall, 10, 999, 4, Points::kTied,
     Weights::kTypeIII, 0x9491b18000589d30},
    {"ball_II_c1_n131_d1_dup", kBall, 1, 131, 1, Points::kDuplicated,
     Weights::kTypeII, 0x8f0edce02c3c0a69},
    {"ball_zero_c33_n700_d10_tied", kBall, 33, 700, 10, Points::kTied,
     Weights::kSomeZero, 0xc5e09b47d69bb5be},
};

data::Matrix MakePoints(const GoldenCase& c, util::Rng& rng) {
  data::Matrix m(c.n, c.d);
  std::vector<double> distinct(7 * c.d);
  for (double& v : distinct) v = rng.Uniform(-1.0, 1.0);
  for (size_t i = 0; i < c.n; ++i) {
    auto row = m.MutableRow(i);
    for (size_t j = 0; j < c.d; ++j) {
      switch (c.points) {
        case Points::kUniform:
          row[j] = rng.Uniform(-1.0, 1.0);
          break;
        case Points::kTied:
          row[j] = std::floor(rng.Uniform(0.0, 5.0)) * 0.25;
          break;
        case Points::kDuplicated:
          row[j] = distinct[(i % 7) * c.d + j];
          break;
        case Points::kIdentical:
          row[j] = 0.125 * static_cast<double>(j);
          break;
      }
    }
  }
  return m;
}

std::vector<double> MakeWeights(const GoldenCase& c, util::Rng& rng) {
  std::vector<double> w(c.n);
  for (size_t i = 0; i < c.n; ++i) {
    switch (c.weights) {
      case Weights::kTypeI:
        w[i] = 0.5;
        break;
      case Weights::kTypeII:
        w[i] = rng.Uniform(0.1, 2.0);
        break;
      case Weights::kTypeIII:
        w[i] = rng.Uniform(-1.0, 1.0);
        break;
      case Weights::kSomeZero:
        w[i] = i % 5 == 0 ? 0.0 : rng.Uniform(0.1, 2.0);
        break;
    }
  }
  return w;
}

uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<unsigned char> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return registry::SnapshotChecksum(bytes);
}

TEST(BuildGoldenTest, SnapshotsMatchRecordedDigests) {
  const std::string dir = ::testing::TempDir();
  for (const GoldenCase& c : kCases) {
    SCOPED_TRACE(c.name);
    util::Rng rng(0x601d + c.n * 131 + c.d);
    const data::Matrix points = MakePoints(c, rng);
    const std::vector<double> weights = MakeWeights(c, rng);
    EngineOptions options;
    options.kernel = core::KernelParams::Gaussian(1.5);
    options.index_kind = c.kind;
    options.leaf_capacity = c.capacity;
    auto engine = Engine::Build(points, weights, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const std::string path = dir + "/build_golden_" + c.name + ".snap";
    ASSERT_TRUE(registry::WriteSnapshot(path, engine.value()).ok());
    const uint64_t digest = FileDigest(path);
    std::filesystem::remove(path);
    char got[32];
    std::snprintf(got, sizeof(got), "0x%016" PRIx64, digest);
    EXPECT_EQ(digest, c.digest) << c.name << " digest " << got;
  }
}

}  // namespace
}  // namespace karl
