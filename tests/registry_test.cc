// Tests for the model registry subsystem: snapshot round trips over
// mmap, corruption rejection, lazy loading, LRU eviction with pinning,
// and RCU-style hot reload.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/check.h"
#include "core/karl.h"
#include "data/synthetic.h"
#include "registry/registry.h"
#include "registry/snapshot.h"
#include "telemetry/metrics.h"
#include "util/rng.h"

namespace karl::registry {
namespace {

namespace fs = std::filesystem;

data::Matrix MakePoints(uint64_t seed, size_t rows = 400) {
  util::Rng rng(seed);
  return data::SampleClustered(rows, 4, 3, 0.08, rng);
}

// Type III: mixed-sign weights (positive and negative trees).
std::vector<double> MixedWeights(uint64_t seed, size_t n) {
  util::Rng rng(seed ^ 0x9e3779b9ull);
  std::vector<double> w(n);
  for (auto& x : w) x = rng.Uniform(-1.0, 1.0);
  return w;
}

// Type II: arbitrary positive weights (eKAQ-capable).
std::vector<double> PositiveWeights(uint64_t seed, size_t n) {
  util::Rng rng(seed ^ 0x5bd1e995ull);
  std::vector<double> w(n);
  for (auto& x : w) x = rng.Uniform(0.1, 1.0);
  return w;
}

Engine BuildEngine(const data::Matrix& points,
                   std::span<const double> weights,
                   core::KernelParams kernel,
                   index::IndexKind kind = index::IndexKind::kKdTree) {
  EngineOptions options;
  options.kernel = kernel;
  options.index_kind = kind;
  options.leaf_capacity = 24;
  return Engine::Build(points, weights, options).ValueOrDie();
}

std::vector<double> RandomQuery(util::Rng& rng) {
  std::vector<double> q(4);
  for (auto& v : q) v = rng.Uniform(0.0, 1.0);
  return q;
}

// Queries both engines at sampled points and requires identical answers
// (same permuted data, same traversal order: bit-for-bit).
void ExpectSameAnswers(const Engine& expected, const Engine& actual,
                       uint64_t seed, bool check_ekaq) {
  util::Rng rng(seed);
  for (int trial = 0; trial < 20; ++trial) {
    const std::vector<double> q = RandomQuery(rng);
    const double exact = expected.Exact(q);
    EXPECT_DOUBLE_EQ(actual.Exact(q), exact);
    EXPECT_EQ(actual.Tkaq(q, exact + 0.01), expected.Tkaq(q, exact + 0.01));
    EXPECT_EQ(actual.Tkaq(q, exact - 0.01), expected.Tkaq(q, exact - 0.01));
    if (check_ekaq) {
      EXPECT_DOUBLE_EQ(actual.Ekaq(q, 0.05), expected.Ekaq(q, 0.05));
    }
  }
}

// Scoped scratch directory under the system temp dir.
class TempDir {
 public:
  explicit TempDir(const std::string& name)
      : path_(fs::temp_directory_path() / name) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string File(const std::string& leaf) const {
    return (path_ / leaf).string();
  }

 private:
  fs::path path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::span<const unsigned char> AsBytes(std::string_view s) {
  return {reinterpret_cast<const unsigned char*>(s.data()), s.size()};
}

// Recomputes and stores the checksum of a deliberately edited file, so
// that only the structural checks stand between the edit and an engine.
void Reseal(std::string& bytes) {
  std::memset(bytes.data() + kSnapshotChecksumOffset, 0, sizeof(uint64_t));
  const uint64_t sum = SnapshotChecksum(AsBytes(bytes));
  std::memcpy(bytes.data() + kSnapshotChecksumOffset, &sum, sizeof(sum));
}

constexpr size_t kLanes = core::simd::SoaLeafBlocks::kBlockPoints;

// Per-tree header block (rows, num_nodes, max_depth; u64 each); see the
// header layout in registry/snapshot.cc.
constexpr size_t kHeaderTreeBlock = 88;
constexpr size_t kHeaderTreeBlockBytes = 24;

// Byte offset, inside the blocked coordinates of a tree with `rows`
// rows and `cols` dimensions, of dimension `dim` of the first pad lane
// (the lane after the last real row; requires rows % kLanes != 0).
size_t PadCoordOffset(size_t rows, size_t cols, size_t dim) {
  const size_t last_block = rows / kLanes;
  return ((last_block * cols + dim) * kLanes + rows % kLanes) *
         sizeof(double);
}

// The extents SectionExtents reports per tree, in file order; the
// blocks section counts as two (coordinates, then weights).
enum Extent : size_t {
  kNodes,
  kBlockCoords,
  kBlockWeights,
  kPerm,
  kWeightSums,
  kSqnormSums,
  kPointSums,
  kRegionA,
  kRegionB,
};
constexpr size_t kExtentsPerTree = kRegionB + 1;

// (file offset, byte length) of every extent of every tree, in file
// order. Tree 0's node section starts right after the header, which
// anchors the mapping's base address.
std::vector<std::pair<size_t, size_t>> SectionExtents(
    const MappedSnapshot& snap) {
  const auto* base =
      reinterpret_cast<const unsigned char*>(snap.tree_view(0).nodes.data()) -
      kSnapshotHeaderBytes;
  std::vector<std::pair<size_t, size_t>> out;
  const auto add = [&](const void* p, size_t bytes) {
    out.emplace_back(static_cast<const unsigned char*>(p) - base, bytes);
  };
  for (size_t t = 0; t < snap.num_trees(); ++t) {
    const index::TreeIndexView& v = snap.tree_view(t);
    add(v.nodes.data(), v.nodes.size_bytes());
    add(v.blocks.data(), v.blocks.size_bytes());
    add(v.block_weights.data(), v.block_weights.size_bytes());
    add(v.perm.data(), v.perm.size_bytes());
    add(v.weight_sums.data(), v.weight_sums.size_bytes());
    add(v.sqnorm_sums.data(), v.sqnorm_sums.size_bytes());
    add(v.point_sums.data(), v.point_sums.size_bytes());
    add(v.region_a.data(), v.region_a.size_bytes());
    add(v.region_b.data(), v.region_b.size_bytes());
  }
  return out;
}

// ---------------------------------------------------------------------
// Snapshot format.
// ---------------------------------------------------------------------

TEST(SnapshotTest, ChecksumMatchesPublishedXxh64Vectors) {
  EXPECT_EQ(SnapshotChecksum(AsBytes("")), 0xef46db3751d8e999ull);
  EXPECT_EQ(SnapshotChecksum(AsBytes("a")), 0xd24ec4f1a98c6e5bull);
  EXPECT_EQ(SnapshotChecksum(AsBytes("abc")), 0x44bc2cf5ad770999ull);
  EXPECT_EQ(SnapshotChecksum(
                AsBytes("Nobody inspects the spammish repetition")),
            0xfbcea83c8a378bf1ull);
}

TEST(SnapshotTest, StreamedChecksumMatchesOneShotAtEverySplit) {
  util::Rng rng(15);
  std::vector<unsigned char> buf(1000);
  for (auto& b : buf) b = static_cast<unsigned char>(rng.NextU64());
  const std::span<const unsigned char> all(buf);
  const uint64_t expected = SnapshotChecksum(all);
  for (size_t split = 0; split <= buf.size(); ++split) {
    SnapshotHasher hasher;
    hasher.Update(all.first(split));
    hasher.Update(all.subspan(split));
    ASSERT_EQ(hasher.Digest(), expected) << "split=" << split;
  }
  SnapshotHasher bytewise;
  for (size_t i = 0; i < buf.size(); ++i) bytewise.Update(all.subspan(i, 1));
  EXPECT_EQ(bytewise.Digest(), expected);
}

TEST(SnapshotTest, KdTypeIIIRoundTripAnswersIdentically) {
  TempDir dir("karl_snap_rt_kd");
  const data::Matrix points = MakePoints(1);
  const std::vector<double> weights = MixedWeights(1, points.rows());
  const Engine original =
      BuildEngine(points, weights, core::KernelParams::Gaussian(3.0));
  EXPECT_EQ(original.weighting_type(), WeightingType::kTypeIII);

  const std::string path = dir.File("m.snap");
  ASSERT_TRUE(WriteSnapshot(path, original).ok());

  auto snapshot = MappedSnapshot::Map(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value().weighting(), WeightingType::kTypeIII);
  EXPECT_EQ(snapshot.value().num_trees(), 2u);

  auto attached = AttachEngine(snapshot.value(), nullptr, nullptr);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  EXPECT_EQ(attached.value().weighting_type(), WeightingType::kTypeIII);
  ExpectSameAnswers(original, attached.value(), 7, /*check_ekaq=*/false);
}

TEST(SnapshotTest, BallTypeIIRoundTripAnswersIdentically) {
  TempDir dir("karl_snap_rt_ball");
  const data::Matrix points = MakePoints(2);
  const std::vector<double> weights = PositiveWeights(2, points.rows());
  const Engine original =
      BuildEngine(points, weights, core::KernelParams::Laplacian(1.5),
                  index::IndexKind::kBallTree);
  EXPECT_EQ(original.weighting_type(), WeightingType::kTypeII);

  const std::string path = dir.File("m.snap");
  ASSERT_TRUE(WriteSnapshot(path, original).ok());

  auto snapshot = MappedSnapshot::Map(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value().num_trees(), 1u);

  auto attached = AttachEngine(snapshot.value(), nullptr, nullptr);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  ExpectSameAnswers(original, attached.value(), 8, /*check_ekaq=*/true);
}

TEST(SnapshotTest, AllKernelAndIndexVariantsRoundTrip) {
  TempDir dir("karl_snap_variants");
  for (const auto kernel :
       {core::KernelParams::Gaussian(2.0), core::KernelParams::Cauchy(4.0),
        core::KernelParams::Polynomial(0.3, 0.7, 5),
        core::KernelParams::Sigmoid(0.9, -0.4)}) {
    for (const auto kind :
         {index::IndexKind::kKdTree, index::IndexKind::kBallTree}) {
      const data::Matrix points = MakePoints(3, 200);
      const std::vector<double> weights = MixedWeights(3, points.rows());
      const Engine original = BuildEngine(points, weights, kernel, kind);
      const std::string path = dir.File("v.snap");
      ASSERT_TRUE(WriteSnapshot(path, original).ok());
      auto snapshot = MappedSnapshot::Map(path);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      EXPECT_EQ(snapshot.value().options().kernel.type, kernel.type);
      EXPECT_EQ(snapshot.value().options().index_kind, kind);
      auto attached = AttachEngine(snapshot.value(), nullptr, nullptr);
      ASSERT_TRUE(attached.ok()) << attached.status().ToString();
      util::Rng rng(9);
      const std::vector<double> q = RandomQuery(rng);
      EXPECT_DOUBLE_EQ(attached.value().Exact(q), original.Exact(q));
    }
  }
}

TEST(SnapshotTest, WriteIsDeterministicAndResnapshotIsByteIdentical) {
  TempDir dir("karl_snap_det");
  const data::Matrix points = MakePoints(4);
  const std::vector<double> weights = MixedWeights(4, points.rows());
  const Engine engine =
      BuildEngine(points, weights, core::KernelParams::Gaussian(2.0));

  const std::string a = dir.File("a.snap");
  const std::string b = dir.File("b.snap");
  ASSERT_TRUE(WriteSnapshot(a, engine).ok());
  ASSERT_TRUE(WriteSnapshot(b, engine).ok());
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(b));

  // Re-snapshotting an attached engine reproduces the original bytes:
  // the attach path must not perturb any serialized state.
  auto snapshot = MappedSnapshot::Map(a);
  ASSERT_TRUE(snapshot.ok());
  auto attached = AttachEngine(snapshot.value(), nullptr, nullptr);
  ASSERT_TRUE(attached.ok());
  const std::string c = dir.File("c.snap");
  ASSERT_TRUE(WriteSnapshot(c, attached.value()).ok());
  EXPECT_EQ(ReadFileBytes(a), ReadFileBytes(c));
}

TEST(SnapshotTest, RejectsTruncation) {
  TempDir dir("karl_snap_trunc");
  const data::Matrix points = MakePoints(5, 200);
  const std::vector<double> weights = MixedWeights(5, points.rows());
  const Engine engine =
      BuildEngine(points, weights, core::KernelParams::Gaussian(1.0));
  const std::string path = dir.File("m.snap");
  ASSERT_TRUE(WriteSnapshot(path, engine).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), kSnapshotHeaderBytes);

  const std::string cut_path = dir.File("cut.snap");
  for (const size_t cut :
       {size_t{2}, size_t{100}, kSnapshotHeaderBytes, bytes.size() / 2,
        bytes.size() - 1}) {
    WriteFileBytes(cut_path, bytes.substr(0, cut));
    auto mapped = MappedSnapshot::Map(cut_path);
    EXPECT_FALSE(mapped.ok()) << "cut=" << cut;
    // Every failure names the offending file.
    EXPECT_NE(mapped.status().message().find(cut_path), std::string::npos)
        << mapped.status().ToString();
  }
}

TEST(SnapshotTest, RejectsCorruptHeaderFields) {
  TempDir dir("karl_snap_corrupt");
  const data::Matrix points = MakePoints(6, 200);
  const std::vector<double> weights = MixedWeights(6, points.rows());
  const Engine engine =
      BuildEngine(points, weights, core::KernelParams::Gaussian(1.0));
  const std::string path = dir.File("m.snap");
  ASSERT_TRUE(WriteSnapshot(path, engine).ok());
  const std::string bytes = ReadFileBytes(path);
  const std::string bad_path = dir.File("bad.snap");

  // Bad magic.
  std::string bad = bytes;
  bad[0] = static_cast<char>(bad[0] ^ 0xFF);
  WriteFileBytes(bad_path, bad);
  EXPECT_FALSE(MappedSnapshot::Map(bad_path).ok());

  // Wrong version, including a format v1 (FNV-1a) and a format v2
  // (row-major points) file. Resealed, so the version check alone must
  // reject it.
  for (const uint32_t version : {1u, 2u, 0x7Fu}) {
    bad = bytes;
    std::memcpy(bad.data() + 4, &version, sizeof(version));
    Reseal(bad);
    WriteFileBytes(bad_path, bad);
    auto wrong_version = MappedSnapshot::Map(bad_path);
    ASSERT_FALSE(wrong_version.ok());
    EXPECT_NE(wrong_version.status().message().find(
                  "unsupported format version " + std::to_string(version)),
              std::string::npos)
        << wrong_version.status().ToString();
  }

  // Flipped checksum byte.
  bad = bytes;
  bad[kSnapshotChecksumOffset] =
      static_cast<char>(bad[kSnapshotChecksumOffset] ^ 0x01);
  WriteFileBytes(bad_path, bad);
  auto bad_checksum = MappedSnapshot::Map(bad_path);
  ASSERT_FALSE(bad_checksum.ok());
  EXPECT_NE(bad_checksum.status().message().find("checksum"),
            std::string::npos)
      << bad_checksum.status().ToString();

  // One flipped byte inside every section of both trees (the blocks
  // section's coordinates and weights separately), then one in the zero
  // padding between two sections, then one in a pad-lane weight and a
  // pad-lane coordinate of each tree's last block: the checksum covers
  // it all.
  auto snapshot = MappedSnapshot::Map(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  ASSERT_EQ(snapshot.value().num_trees(), 2u);
  const auto sections = SectionExtents(snapshot.value());
  ASSERT_EQ(sections.size(), 2 * kExtentsPerTree);
  std::vector<size_t> flips;
  for (const auto& [at, len] : sections) {
    ASSERT_GT(len, 0u);
    flips.push_back(at + len / 2);
  }
  for (size_t i = 0; i + 1 < sections.size(); ++i) {
    const size_t end = sections[i].first + sections[i].second;
    if (end < sections[i + 1].first) {
      ASSERT_EQ(bytes[end], '\0');
      flips.push_back(end);
      break;
    }
  }
  ASSERT_EQ(flips.size(), sections.size() + 1) << "no inter-section padding";
  for (size_t t = 0; t < 2; ++t) {
    const index::TreeIndexView& v = snapshot.value().tree_view(t);
    ASSERT_NE(v.rows % kLanes, 0u) << "tree " << t << " has no pad lanes";
    const size_t first = t * kExtentsPerTree;
    flips.push_back(sections[first + kBlockWeights].first +
                    v.rows * sizeof(double));
    flips.push_back(sections[first + kBlockCoords].first +
                    PadCoordOffset(v.rows, v.cols, v.cols - 1));
  }
  for (const size_t at : flips) {
    bad = bytes;
    bad[at] = static_cast<char>(bad[at] ^ 0x01);
    WriteFileBytes(bad_path, bad);
    auto mapped = MappedSnapshot::Map(bad_path);
    ASSERT_FALSE(mapped.ok()) << "offset " << at;
    EXPECT_NE(mapped.status().message().find("checksum"), std::string::npos)
        << "offset " << at << ": " << mapped.status().ToString();
  }
}

// A Type III kd-tree snapshot in `dir` (m.snap) whose two trees both
// end in a padded block, plus its bytes and section extents.
struct TestSnapshot {
  std::string bytes;
  std::vector<std::pair<size_t, size_t>> sections;
  size_t rows[2] = {};
  size_t cols = 0;
};

TestSnapshot WriteTestSnapshot(const TempDir& dir, uint64_t seed) {
  const data::Matrix points = MakePoints(seed, 200);
  const std::vector<double> weights = MixedWeights(seed, points.rows());
  const Engine engine =
      BuildEngine(points, weights, core::KernelParams::Gaussian(1.0));
  const std::string path = dir.File("m.snap");
  KARL_CHECK(WriteSnapshot(path, engine).ok());
  TestSnapshot out;
  out.bytes = ReadFileBytes(path);
  auto snapshot = MappedSnapshot::Map(path);
  KARL_CHECK(snapshot.ok()) << snapshot.status().ToString();
  KARL_CHECK(snapshot.value().num_trees() == 2);
  out.sections = SectionExtents(snapshot.value());
  for (size_t t = 0; t < 2; ++t) {
    out.rows[t] = snapshot.value().tree_view(t).rows;
  }
  out.cols = snapshot.value().tree_view(0).cols;
  return out;
}

// File offset of extent `e` of tree `t`.
size_t ExtentAt(const TestSnapshot& snap, size_t t, Extent e) {
  return snap.sections[t * kExtentsPerTree + e].first;
}

// Reseals `bad` and requires that it still maps (checksum and layout
// hold) but fails to attach with a message naming the file and `why`.
void ExpectAttachRejects(const TempDir& dir, std::string bad,
                         const std::string& why) {
  Reseal(bad);
  const std::string bad_path = dir.File("bad.snap");
  WriteFileBytes(bad_path, bad);
  auto mapped = MappedSnapshot::Map(bad_path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto attached = AttachEngine(mapped.value(), nullptr, nullptr);
  ASSERT_FALSE(attached.ok()) << "accepted a file that should fail: " << why;
  EXPECT_NE(attached.status().message().find(why), std::string::npos)
      << attached.status().ToString();
  EXPECT_NE(attached.status().message().find(bad_path), std::string::npos)
      << attached.status().ToString();
}

template <typename T>
void Poke(std::string& bytes, size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(value));
}

TEST(SnapshotTest, RejectsDuplicatePermEntryEvenWhenResealed) {
  TempDir dir("karl_snap_perm");
  const TestSnapshot snap = WriteTestSnapshot(dir, 13);

  // The streamed writer's checksum equals the one-shot checksum.
  std::string bad = snap.bytes;
  Reseal(bad);
  ASSERT_EQ(bad, snap.bytes);

  // perm[1] = perm[0]: every entry stays in range, one repeats.
  const size_t perm_at = ExtentAt(snap, 0, kPerm);
  std::memcpy(bad.data() + perm_at + sizeof(uint64_t), bad.data() + perm_at,
              sizeof(uint64_t));
  ExpectAttachRejects(dir, bad, "permutation");
}

TEST(SnapshotTest, RejectsNonZeroPadLaneEvenWhenResealed) {
  TempDir dir("karl_snap_pad");
  const TestSnapshot snap = WriteTestSnapshot(dir, 13);
  for (size_t t = 0; t < 2; ++t) {
    ASSERT_NE(snap.rows[t] % kLanes, 0u) << "tree " << t << " has no pad";
    std::string bad = snap.bytes;
    Poke(bad, ExtentAt(snap, t, kBlockWeights) + snap.rows[t] * 8, 0.5);
    ExpectAttachRejects(dir, bad, "pad lane");
    for (const size_t dim : {size_t{0}, snap.cols - 1}) {
      bad = snap.bytes;
      Poke(bad,
           ExtentAt(snap, t, kBlockCoords) +
               PadCoordOffset(snap.rows[t], snap.cols, dim),
           -1e-300);
      ExpectAttachRejects(dir, bad, "pad lane");
    }
  }
}

TEST(SnapshotTest, RejectsNonFiniteAggregatesEvenWhenResealed) {
  TempDir dir("karl_snap_finite");
  const TestSnapshot snap = WriteTestSnapshot(dir, 13);
  const std::pair<Extent, const char*> arrays[] = {
      {kWeightSums, "weight_sums"}, {kSqnormSums, "sqnorm_sums"},
      {kPointSums, "point_sums"},   {kRegionA, "region_a"},
      {kRegionB, "region_b"}};
  for (size_t t = 0; t < 2; ++t) {
    for (const auto& [extent, name] : arrays) {
      for (const double value : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
        std::string bad = snap.bytes;
        Poke(bad, ExtentAt(snap, t, extent) + sizeof(double), value);
        ExpectAttachRejects(dir, bad,
                            std::string("non-finite value in ") + name);
      }
    }
  }
}

TEST(SnapshotTest, RejectsChildDepthMismatchEvenWhenResealed) {
  TempDir dir("karl_snap_depth");
  const TestSnapshot snap = WriteTestSnapshot(dir, 13);
  for (size_t t = 0; t < 2; ++t) {
    // Node 1 is the root's left child: depth 1 is the only valid value.
    for (const uint16_t depth : {uint16_t{0}, uint16_t{2}}) {
      std::string bad = snap.bytes;
      Poke(bad, ExtentAt(snap, t, kNodes) + sizeof(index::TreeIndex::Node) +
                    offsetof(index::TreeIndex::Node, depth),
           depth);
      ExpectAttachRejects(dir, bad, "is not at depth 1");
    }
  }
}

TEST(SnapshotTest, RejectsWrongMaxDepthEvenWhenResealed) {
  TempDir dir("karl_snap_max_depth");
  const TestSnapshot snap = WriteTestSnapshot(dir, 13);
  for (size_t t = 0; t < 2; ++t) {
    const size_t at = kHeaderTreeBlock + t * kHeaderTreeBlockBytes + 16;
    uint64_t max_depth = 0;
    std::memcpy(&max_depth, snap.bytes.data() + at, sizeof(max_depth));
    ASSERT_GT(max_depth, 0u);
    for (const uint64_t wrong : {max_depth - 1, max_depth + 1}) {
      std::string bad = snap.bytes;
      Poke(bad, at, wrong);
      ExpectAttachRejects(dir, bad, "max_depth");
    }
  }
}

TEST(SnapshotTest, AttachedMemoryMatchesBuiltEngineAndFileSize) {
  TempDir dir("karl_snap_memory");
  const data::Matrix points = MakePoints(14, 300);
  const std::vector<double> uniform(points.rows(), 0.5);
  const std::vector<double> positive = PositiveWeights(14, points.rows());
  const std::vector<double> mixed = MixedWeights(14, points.rows());
  const std::pair<const std::vector<double>*, WeightingType> cases[] = {
      {&uniform, WeightingType::kTypeI},
      {&positive, WeightingType::kTypeII},
      {&mixed, WeightingType::kTypeIII}};
  for (const auto& [weights, type] : cases) {
    for (const auto kind :
         {index::IndexKind::kKdTree, index::IndexKind::kBallTree}) {
      const Engine built = BuildEngine(
          points, *weights, core::KernelParams::Gaussian(2.0), kind);
      ASSERT_EQ(built.weighting_type(), type);
      const std::string path = dir.File("m.snap");
      ASSERT_TRUE(WriteSnapshot(path, built).ok());
      auto snapshot = MappedSnapshot::Map(path);
      ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
      auto attached = AttachEngine(snapshot.value(), nullptr, nullptr);
      ASSERT_TRUE(attached.ok()) << attached.status().ToString();
      const size_t bytes = attached.value().MemoryUsageBytes();
      EXPECT_EQ(bytes, built.MemoryUsageBytes())
          << WeightingTypeToString(type) << " "
          << index::IndexKindToString(kind);
      EXPECT_LE(static_cast<double>(bytes),
                1.05 * static_cast<double>(snapshot.value().file_bytes()))
          << WeightingTypeToString(type) << " "
          << index::IndexKindToString(kind);
    }
  }
}

TEST(SnapshotTest, UnlinkedFileKeepsAnswering) {
  TempDir dir("karl_snap_unlink");
  const data::Matrix points = MakePoints(7);
  const std::vector<double> weights = MixedWeights(7, points.rows());
  const Engine original =
      BuildEngine(points, weights, core::KernelParams::Gaussian(2.0));
  const std::string path = dir.File("m.snap");
  ASSERT_TRUE(WriteSnapshot(path, original).ok());

  auto snapshot = MappedSnapshot::Map(path);
  ASSERT_TRUE(snapshot.ok());
  auto attached = AttachEngine(snapshot.value(), nullptr, nullptr);
  ASSERT_TRUE(attached.ok());

  // POSIX: the mapping survives the unlink until munmap.
  ASSERT_TRUE(fs::remove(path));
  ExpectSameAnswers(original, attached.value(), 11, /*check_ekaq=*/false);
}

TEST(SnapshotTest, MissingFileErrorNamesPath) {
  const std::string path = "/nonexistent/karl/model.snap";
  auto mapped = MappedSnapshot::Map(path);
  ASSERT_FALSE(mapped.ok());
  EXPECT_EQ(mapped.status().code(), util::StatusCode::kIOError);
  EXPECT_NE(mapped.status().message().find(path), std::string::npos);
}

// ---------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------

// Writes a snapshot built from (seed, rows) to `path`; returns the built
// engine for answer comparison.
Engine WriteModel(const std::string& path, uint64_t seed, size_t rows = 400) {
  const data::Matrix points = MakePoints(seed, rows);
  const std::vector<double> weights = MixedWeights(seed, points.rows());
  Engine engine =
      BuildEngine(points, weights, core::KernelParams::Gaussian(2.0));
  KARL_CHECK(WriteSnapshot(path, engine).ok());
  return engine;
}

TEST(RegistryTest, ScansLazilyAndServesNamedModels) {
  TempDir dir("karl_reg_scan");
  const Engine a = WriteModel(dir.File("alpha.snap"), 21);
  const Engine b = WriteModel(dir.File("beta.snap"), 22);

  RegistryOptions options;
  options.default_model = "alpha";
  auto registry = ModelRegistry::Open(dir.File(""), options);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  ModelRegistry& reg = *registry.value();

  // Nothing resident before the first Acquire.
  for (const auto& info : reg.List()) {
    EXPECT_FALSE(info.resident) << info.name;
    EXPECT_GT(info.file_bytes, 0u) << info.name;
  }
  EXPECT_EQ(reg.resident_bytes(), 0u);
  EXPECT_EQ(reg.default_model(), "alpha");

  auto ha = reg.Acquire("");  // Default resolves to alpha.
  ASSERT_TRUE(ha.ok()) << ha.status().ToString();
  auto hb = reg.Acquire("beta");
  ASSERT_TRUE(hb.ok()) << hb.status().ToString();
  EXPECT_TRUE(ha.value()->mmap_backed());
  EXPECT_TRUE(hb.value()->mmap_backed());

  ExpectSameAnswers(a, ha.value()->engine(), 31, /*check_ekaq=*/false);
  ExpectSameAnswers(b, hb.value()->engine(), 32, /*check_ekaq=*/false);

  const auto listed = reg.List();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_TRUE(listed[0].resident);
  EXPECT_TRUE(listed[1].resident);
  EXPECT_TRUE(listed[0].mmap_backed);
  EXPECT_GT(reg.resident_bytes(), 0u);
}

TEST(RegistryTest, SingleModelIsImplicitDefault) {
  TempDir dir("karl_reg_single");
  WriteModel(dir.File("only.snap"), 23, 200);
  auto registry = ModelRegistry::Open(dir.File(""), RegistryOptions{});
  ASSERT_TRUE(registry.ok());
  EXPECT_EQ(registry.value()->default_model(), "only");
  EXPECT_TRUE(registry.value()->Acquire("").ok());
}

TEST(RegistryTest, MultiModelWithoutDefaultRejectsUnnamedRequests) {
  TempDir dir("karl_reg_nodefault");
  WriteModel(dir.File("a.snap"), 24, 200);
  WriteModel(dir.File("b.snap"), 25, 200);
  auto registry = ModelRegistry::Open(dir.File(""), RegistryOptions{});
  ASSERT_TRUE(registry.ok());
  auto handle = registry.value()->Acquire("");
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(RegistryTest, UnknownModelIsNotFoundAndListsKnownNames) {
  TempDir dir("karl_reg_unknown");
  WriteModel(dir.File("alpha.snap"), 26, 200);
  auto registry = ModelRegistry::Open(dir.File(""), RegistryOptions{});
  ASSERT_TRUE(registry.ok());
  auto handle = registry.value()->Acquire("nope");
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), util::StatusCode::kNotFound);
  EXPECT_NE(handle.status().message().find("alpha"), std::string::npos);
}

// Snapshots are the only model format: a file in the retired engine-model
// format (magic "KARL"), or any other foreign file however short, fails
// to load with an error naming its path, and a directory scan lists only
// *.snap files.
TEST(RegistryTest, RejectsLegacyModelFilesAndScansOnlySnapshots) {
  TempDir dir("karl_reg_legacy");
  const std::string legacy = dir.File("old.karl");
  const std::string short_csv = dir.File("points.csv");
  WriteFileBytes(legacy, "KARL" + std::string(1024, '\x01'));
  WriteFileBytes(short_csv, "0.5,0.5\n");
  auto registry = ModelRegistry::Open("", RegistryOptions{});
  ASSERT_TRUE(registry.ok());
  for (const std::string& path : {legacy, short_csv}) {
    ASSERT_TRUE(registry.value()->AddModelFile("m", path).ok());
    auto handle = registry.value()->Acquire("m");
    ASSERT_FALSE(handle.ok()) << path;
    EXPECT_EQ(handle.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(handle.status().message().find(path), std::string::npos)
        << handle.status().ToString();
    EXPECT_NE(handle.status().message().find("not a KARL snapshot"),
              std::string::npos)
        << handle.status().ToString();
  }

  WriteModel(dir.File("m.snap"), 28, 200);
  WriteFileBytes(dir.File("b.bin"), "KARL" + std::string(1024, '\x01'));
  auto scanned = ModelRegistry::Open(dir.File(""), RegistryOptions{});
  ASSERT_TRUE(scanned.ok());
  const auto listed = scanned.value()->List();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].name, "m");
}

TEST(RegistryTest, CorruptFileErrorNamesPath) {
  TempDir dir("karl_reg_corrupt");
  WriteFileBytes(dir.File("bad.snap"), "KSNPgarbage");
  auto registry = ModelRegistry::Open(dir.File(""), RegistryOptions{});
  ASSERT_TRUE(registry.ok());
  auto handle = registry.value()->Acquire("bad");
  ASSERT_FALSE(handle.ok());
  EXPECT_NE(handle.status().message().find(dir.File("bad.snap")),
            std::string::npos)
      << handle.status().ToString();
}

TEST(RegistryTest, EvictsLruUnderBudgetButNeverPinned) {
  TempDir dir("karl_reg_evict");
  WriteModel(dir.File("a.snap"), 41);
  const Engine b_built = WriteModel(dir.File("b.snap"), 42);
  WriteModel(dir.File("c.snap"), 43);

  // Measure one model's footprint with an unlimited registry.
  uint64_t one_model_bytes = 0;
  {
    auto probe = ModelRegistry::Open(dir.File(""), RegistryOptions{});
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE(probe.value()->Acquire("a").ok());
    one_model_bytes = probe.value()->resident_bytes();
    ASSERT_GT(one_model_bytes, 0u);
  }

  telemetry::Registry metrics;
  RegistryOptions options;
  options.memory_budget_bytes = one_model_bytes + one_model_bytes / 2;
  options.metrics = &metrics;
  auto registry = ModelRegistry::Open(dir.File(""), options);
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();

  // Load a, drop the handle, then load b: a is LRU and unpinned → gone.
  { ASSERT_TRUE(reg.Acquire("a").ok()); }
  auto hb = reg.Acquire("b");
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(reg.evictions(), 1u);
  for (const auto& info : reg.List()) {
    if (info.name == "a") {
      EXPECT_FALSE(info.resident);
    }
    if (info.name == "b") {
      EXPECT_TRUE(info.resident);
    }
  }
  EXPECT_EQ(metrics.GetCounter("karl_model_evictions_total")->value(), 1u);
  EXPECT_EQ(metrics.GetCounter("karl_model_loads_total")->value(), 2u);
  EXPECT_GT(metrics.GetGauge("karl_model_resident_bytes")->value(), 0.0);

  // Re-load a while still holding b's handle: b is pinned, so both stay
  // resident even though the budget is exceeded.
  auto ha = reg.Acquire("a");
  ASSERT_TRUE(ha.ok());
  EXPECT_EQ(reg.evictions(), 1u);
  EXPECT_GT(reg.resident_bytes(), options.memory_budget_bytes);

  // Drop b's pin; the next *load* (c) sweeps b out. a survives: its
  // handle is still held, and pinned models are never evicted.
  hb = util::Result<ModelHandle>(ModelHandle());
  auto hc = reg.Acquire("c");
  ASSERT_TRUE(hc.ok());
  EXPECT_EQ(reg.evictions(), 2u);
  for (const auto& info : reg.List()) {
    if (info.name == "a") {
      EXPECT_TRUE(info.resident);
    }
    if (info.name == "b") {
      EXPECT_FALSE(info.resident);
    }
    if (info.name == "c") {
      EXPECT_TRUE(info.resident);
    }
  }

  // The evicted model reloads on demand and answers identically.
  auto hb2 = reg.Acquire("b");
  ASSERT_TRUE(hb2.ok());
  util::Rng rng(44);
  const std::vector<double> q = RandomQuery(rng);
  EXPECT_DOUBLE_EQ(hb2.value()->engine().Exact(q), b_built.Exact(q));
}

TEST(RegistryTest, BudgetOfSnapshotSizesKeepsEveryModelResident) {
  TempDir dir("karl_reg_fit");
  const std::vector<std::string> names = {"a", "b", "c", "d"};
  uint64_t snapshot_bytes = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string path = dir.File(names[i] + ".snap");
    WriteModel(path, 61 + i, 300 + 50 * i);
    snapshot_bytes += fs::file_size(path);
  }

  // An attached model's resident bytes are its mapped sections, so a
  // budget of the summed file sizes holds every model at once.
  RegistryOptions options;
  options.memory_budget_bytes = snapshot_bytes;
  auto registry = ModelRegistry::Open(dir.File(""), options);
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();
  for (int cycle = 0; cycle < 2; ++cycle) {
    for (const std::string& name : names) {
      ASSERT_TRUE(reg.Acquire(name).ok()) << name;
    }
  }
  EXPECT_EQ(reg.evictions(), 0u);
  EXPECT_LE(reg.resident_bytes(), snapshot_bytes);
  size_t resident = 0;
  for (const auto& info : reg.List()) {
    EXPECT_TRUE(info.resident) << info.name;
    resident += info.resident ? 1 : 0;
  }
  EXPECT_EQ(resident, names.size());
}

TEST(RegistryTest, HotReloadSwapsAtomicallyWhileOldHandlesKeepServing) {
  TempDir dir("karl_reg_reload");
  const Engine v1 = WriteModel(dir.File("m.snap"), 51, 400);

  auto registry = ModelRegistry::Open(dir.File(""), RegistryOptions{});
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();

  auto h1 = reg.Acquire("m");
  ASSERT_TRUE(h1.ok());
  util::Rng rng(52);
  const std::vector<double> q = RandomQuery(rng);
  const double v1_answer = h1.value()->engine().Exact(q);
  EXPECT_DOUBLE_EQ(v1_answer, v1.Exact(q));

  // Replace-by-rename with a different model (different row count so
  // the size alone flags the change), then reload.
  const Engine v2 = WriteModel(dir.File("m.snap.tmp"), 53, 300);
  fs::rename(dir.File("m.snap.tmp"), dir.File("m.snap"));
  ASSERT_TRUE(reg.Reload().ok());
  EXPECT_EQ(reg.reloads(), 1u);

  // New acquires see v2; the old pinned handle still answers v1 values
  // off the old (now-replaced) mapping.
  auto h2 = reg.Acquire("m");
  ASSERT_TRUE(h2.ok());
  const double v2_answer = h2.value()->engine().Exact(q);
  EXPECT_DOUBLE_EQ(v2_answer, v2.Exact(q));
  EXPECT_NE(v1_answer, v2_answer);
  EXPECT_DOUBLE_EQ(h1.value()->engine().Exact(q), v1_answer);
}

TEST(RegistryTest, GenerationTracksTheReloadThatLoadedEachModel) {
  TempDir dir("karl_reg_generation");
  WriteModel(dir.File("m.snap"), 71, 300);
  WriteModel(dir.File("n.snap"), 72, 300);

  telemetry::Registry metrics;
  RegistryOptions options;
  options.metrics = &metrics;
  auto registry = ModelRegistry::Open(dir.File(""), options);
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();

  ASSERT_TRUE(reg.Acquire("m").ok());
  for (const auto& info : reg.List()) {
    EXPECT_EQ(info.generation, 0u) << info.name;  // Pre-reload epoch.
  }

  // Swap m's file and reload: m's generation moves to the reload count,
  // n (never resident, untouched) stays at its load-time epoch.
  WriteModel(dir.File("m.snap.tmp"), 73, 200);
  fs::rename(dir.File("m.snap.tmp"), dir.File("m.snap"));
  ASSERT_TRUE(reg.Reload().ok());
  ASSERT_TRUE(reg.Acquire("n").ok());
  for (const auto& info : reg.List()) {
    if (info.name == "m") {
      EXPECT_EQ(info.generation, 1u);
    }
    if (info.name == "n") {
      EXPECT_EQ(info.generation, 1u);
    }
  }

  // Labeled per-model twins recorded alongside the global families.
  EXPECT_EQ(metrics
                .GetCounter("karl_model_loads_total",
                            telemetry::LabelSet{{"model", "m"}})
                ->value(),
            2u);
  EXPECT_EQ(metrics
                .GetCounter("karl_model_loads_total",
                            telemetry::LabelSet{{"model", "n"}})
                ->value(),
            1u);
  EXPECT_EQ(metrics.GetCounter("karl_model_loads_total")->value(), 3u);
  EXPECT_GT(metrics
                .GetGauge("karl_model_resident_bytes",
                          telemetry::LabelSet{{"model", "m"}})
                ->value(),
            0.0);
}

TEST(RegistryTest, ReloadAddsNewFilesAndDropsDeletedOnes) {
  TempDir dir("karl_reg_rescan");
  WriteModel(dir.File("a.snap"), 61, 200);
  auto registry = ModelRegistry::Open(dir.File(""), RegistryOptions{});
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();
  EXPECT_FALSE(reg.Acquire("c").ok());

  WriteModel(dir.File("c.snap"), 62, 200);
  ASSERT_TRUE(reg.Reload().ok());
  EXPECT_TRUE(reg.Acquire("c").ok());

  ASSERT_TRUE(fs::remove(dir.File("c.snap")));
  ASSERT_TRUE(reg.Reload().ok());
  auto gone = reg.Acquire("c");
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), util::StatusCode::kNotFound);
}

TEST(RegistryTest, AdoptedEnginesServeAndResistEviction) {
  const data::Matrix points = MakePoints(71, 200);
  const std::vector<double> weights = MixedWeights(71, points.rows());
  const Engine external =
      BuildEngine(points, weights, core::KernelParams::Gaussian(2.0));

  RegistryOptions options;
  options.memory_budget_bytes = 1;  // Absurdly tight.
  auto registry = ModelRegistry::Open("", options);
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();
  reg.AdoptEngine("local", &external);

  auto handle = reg.Acquire("");  // Sole model → implicit default.
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_FALSE(handle.value()->mmap_backed());
  util::Rng rng(72);
  const std::vector<double> q = RandomQuery(rng);
  EXPECT_DOUBLE_EQ(handle.value()->engine().Exact(q), external.Exact(q));

  // Adopted engines are never evicted, budget notwithstanding.
  EXPECT_EQ(reg.evictions(), 0u);
  const auto listed = reg.List();
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_TRUE(listed[0].adopted);
  EXPECT_TRUE(listed[0].resident);
}

TEST(RegistryTest, ExplicitModelFilesRegisterAndReload) {
  TempDir dir("karl_reg_explicit");
  const Engine v1 = WriteModel(dir.File("standalone"), 81, 300);

  auto registry = ModelRegistry::Open("", RegistryOptions{});
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();
  ASSERT_TRUE(reg.AddModelFile("solo", dir.File("standalone")).ok());
  EXPECT_FALSE(
      reg.AddModelFile("ghost", dir.File("does-not-exist")).ok());

  auto h1 = reg.Acquire("solo");
  ASSERT_TRUE(h1.ok()) << h1.status().ToString();
  EXPECT_TRUE(h1.value()->mmap_backed());  // Any name maps as a snapshot.
  util::Rng rng(82);
  const std::vector<double> q = RandomQuery(rng);
  EXPECT_DOUBLE_EQ(h1.value()->engine().Exact(q), v1.Exact(q));

  // Swap the file in place; Reload must pick up the change.
  const Engine v2 = WriteModel(dir.File("standalone.tmp"), 83, 200);
  fs::rename(dir.File("standalone.tmp"), dir.File("standalone"));
  ASSERT_TRUE(reg.Reload().ok());
  auto h2 = reg.Acquire("solo");
  ASSERT_TRUE(h2.ok());
  EXPECT_DOUBLE_EQ(h2.value()->engine().Exact(q), v2.Exact(q));
}

TEST(RegistryTest, ConcurrentAcquireQueryReloadEvictStress) {
  TempDir dir("karl_reg_stress");
  WriteModel(dir.File("a.snap"), 91, 200);
  WriteModel(dir.File("b.snap"), 92, 200);
  WriteModel(dir.File("c.snap"), 93, 200);
  // Alternate version of b, swapped in mid-stress by the reload thread.
  WriteModel(dir.File("b_alt"), 94, 150);

  // Budget fits roughly one model: constant eviction churn.
  uint64_t one_model_bytes = 0;
  {
    auto probe = ModelRegistry::Open(dir.File(""), RegistryOptions{});
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE(probe.value()->Acquire("a").ok());
    one_model_bytes = probe.value()->resident_bytes();
  }
  RegistryOptions options;
  options.memory_budget_bytes = one_model_bytes + one_model_bytes / 4;
  auto registry = ModelRegistry::Open(dir.File(""), options);
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();

  std::atomic<int> failures{0};
  const char* names[3] = {"a", "b", "c"};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      util::Rng rng(100 + static_cast<uint64_t>(t));
      for (int iter = 0; iter < 40; ++iter) {
        auto handle = reg.Acquire(names[(t + iter) % 3]);
        if (!handle.ok()) {
          ++failures;
          continue;
        }
        const std::vector<double> q = RandomQuery(rng);
        const double exact = handle.value()->engine().Exact(q);
        if (!std::isfinite(exact)) ++failures;
        handle.value()->engine().Tkaq(q, exact + 0.01);
      }
    });
  }
  std::thread reloader([&] {
    for (int iter = 0; iter < 10; ++iter) {
      if (iter == 5) {
        std::error_code ec;
        fs::rename(dir.File("b_alt"), dir.File("b.snap"), ec);
      }
      if (!reg.Reload().ok()) ++failures;
    }
  });
  for (auto& w : workers) w.join();
  reloader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reg.evictions(), 0u);
}

}  // namespace
}  // namespace karl::registry
