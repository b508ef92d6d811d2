// Tests for the model registry subsystem: snapshot round trips over
// mmap, corruption rejection, lazy loading, LRU eviction with pinning,
// and RCU-style hot reload.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
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
#include "telemetry/rolling.h"
#include "util/log.h"
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

// What this process's open file descriptors point at (readlink of
// /proc/self/fd/*). A file that a rename replaced reads "<path> (deleted)".
std::vector<std::string> OpenFdTargets() {
  std::vector<std::string> targets;
  for (const auto& fd : fs::directory_iterator("/proc/self/fd")) {
    std::error_code ec;
    targets.push_back(fs::read_symlink(fd.path(), ec).string());
  }
  return targets;
}

size_t OpenFdCount() { return OpenFdTargets().size(); }

size_t OpenFdsOn(const std::string& target) {
  size_t n = 0;
  for (const std::string& t : OpenFdTargets()) n += t == target ? 1 : 0;
  return n;
}

// Polls `done` for up to 10 s; true once it holds.
bool WaitUntil(const std::function<bool()>& done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
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

// Names in `dir`, for checking that a write left no temporary behind.
std::vector<std::string> DirEntries(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// Rewriting a snapshot that an engine has mapped leaves that engine
// answering from the old bytes: WriteSnapshot renames a new file over
// the path. Truncating the file in place would kill the reader with
// SIGBUS on its next query.
TEST(SnapshotTest, RewriteKeepsMappedEngineAnswering) {
  TempDir dir("karl_snap_rewrite");
  const data::Matrix points = MakePoints(13, 20000);
  const std::vector<double> weights = MixedWeights(13, points.rows());
  const Engine original =
      BuildEngine(points, weights, core::KernelParams::Gaussian(2.0));
  const std::string path = dir.File("m.snap");
  ASSERT_TRUE(WriteSnapshot(path, original).ok());
  auto snapshot = MappedSnapshot::Map(path);
  ASSERT_TRUE(snapshot.ok());
  auto attached = AttachEngine(snapshot.value(), nullptr, nullptr);
  ASSERT_TRUE(attached.ok());

  const data::Matrix few = MakePoints(14, 500);
  const Engine smaller = BuildEngine(few, MixedWeights(14, few.rows()),
                                     core::KernelParams::Gaussian(2.0));
  ASSERT_TRUE(WriteSnapshot(path, smaller).ok());
  ExpectSameAnswers(original, attached.value(), 15, /*check_ekaq=*/true);

  auto rewritten = MappedSnapshot::Map(path);
  ASSERT_TRUE(rewritten.ok());
  auto reattached = AttachEngine(rewritten.value(), nullptr, nullptr);
  ASSERT_TRUE(reattached.ok());
  ExpectSameAnswers(smaller, reattached.value(), 16, /*check_ekaq=*/true);
  EXPECT_EQ(DirEntries(dir.File("")), std::vector<std::string>{"m.snap"});
}

// The check runs on the complete new file, under a name a registry scan
// skips, before it replaces anything; when it fails, the new file is
// removed and the old one stays as it was.
TEST(SnapshotTest, FailedCheckKeepsTheOldFileAndLeavesNoTemporary) {
  TempDir dir("karl_snap_check");
  const std::string path = dir.File("m.snap");
  const Engine v1 = BuildEngine(MakePoints(17), MixedWeights(17, 400),
                                core::KernelParams::Gaussian(2.0));
  ASSERT_TRUE(WriteSnapshot(path, v1).ok());
  const std::string before = ReadFileBytes(path);
  const Engine v2 = BuildEngine(MakePoints(18), MixedWeights(18, 400),
                                core::KernelParams::Gaussian(2.0));
  std::string checked;
  const util::Status status =
      WriteSnapshot(path, v2, [&](const std::string& written) {
        checked = written;
        EXPECT_NE(written, path);
        EXPECT_EQ(fs::path(written).parent_path(),
                  fs::path(path).parent_path());
        EXPECT_EQ(fs::path(written).extension(), ".tmp");
        auto mapped = MappedSnapshot::Map(written);
        EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
        return util::Status::Internal("refused by the check");
      });
  EXPECT_EQ(status.code(), util::StatusCode::kInternal);
  EXPECT_EQ(status.message(), "refused by the check");
  EXPECT_FALSE(checked.empty());
  EXPECT_FALSE(fs::exists(checked));
  EXPECT_EQ(ReadFileBytes(path), before);
  EXPECT_EQ(DirEntries(dir.File("")), std::vector<std::string>{"m.snap"});

  // A passing check lets the new file take the name.
  ASSERT_TRUE(WriteSnapshot(path, v2, [](const std::string&) {
                return util::Status::OK();
              }).ok());
  EXPECT_NE(ReadFileBytes(path), before);
  EXPECT_EQ(DirEntries(dir.File("")), std::vector<std::string>{"m.snap"});
}

TEST(SnapshotTest, WriteIntoMissingDirectoryNamesThePath) {
  const Engine engine = BuildEngine(MakePoints(19), PositiveWeights(19, 400),
                                    core::KernelParams::Gaussian(2.0));
  const std::string path = "/nonexistent/karl/model.snap";
  const util::Status status = WriteSnapshot(path, engine);
  EXPECT_EQ(status.code(), util::StatusCode::kIOError);
  EXPECT_NE(status.message().find(path), std::string::npos)
      << status.message();
}

// A mapping holds its file descriptor until it is destroyed or moved
// over, and no failed Map keeps one.
TEST(SnapshotTest, DescriptorLivesExactlyAsLongAsTheMapping) {
  TempDir dir("karl_snap_fds");
  const std::string path = dir.File("m.snap");
  ASSERT_TRUE(WriteSnapshot(path, BuildEngine(MakePoints(8, 200),
                                              MixedWeights(8, 200),
                                              core::KernelParams::Gaussian(
                                                  1.0)))
                  .ok());
  const std::string bytes = ReadFileBytes(path);
  std::string corrupt = bytes;
  corrupt[bytes.size() / 2] = static_cast<char>(corrupt[bytes.size() / 2] ^ 1);
  const std::string short_path = dir.File("short.snap");
  const std::string cut_path = dir.File("cut.snap");
  const std::string corrupt_path = dir.File("corrupt.snap");
  WriteFileBytes(short_path, bytes.substr(0, 100));
  WriteFileBytes(cut_path, bytes.substr(0, bytes.size() / 2));
  WriteFileBytes(corrupt_path, corrupt);

  const size_t baseline = OpenFdCount();
  const std::string failing[3] = {short_path, cut_path, corrupt_path};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_FALSE(MappedSnapshot::Map(failing[i % 3]).ok()) << i;
  }
  EXPECT_EQ(OpenFdCount(), baseline);

  {
    auto first = MappedSnapshot::Map(path);
    auto second = MappedSnapshot::Map(path);
    ASSERT_TRUE(first.ok() && second.ok());
    EXPECT_EQ(OpenFdCount(), baseline + 2);
    MappedSnapshot moved = std::move(first).ValueOrDie();
    EXPECT_EQ(OpenFdCount(), baseline + 2);
    moved = std::move(second).ValueOrDie();  // Closes moved's own file.
    EXPECT_EQ(OpenFdCount(), baseline + 1);
    ASSERT_TRUE(AttachEngine(moved, nullptr, nullptr).ok());
  }
  EXPECT_EQ(OpenFdCount(), baseline);
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

  ExpectSameAnswers(a, ha.value()->engine(), 31, /*check_ekaq=*/false);
  ExpectSameAnswers(b, hb.value()->engine(), 32, /*check_ekaq=*/false);

  const auto listed = reg.List();
  ASSERT_EQ(listed.size(), 2u);
  EXPECT_TRUE(listed[0].resident);
  EXPECT_TRUE(listed[1].resident);
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
  std::vector<std::vector<double>> probes;
  std::vector<double> pinned_answers;
  for (int i = 0; i < 20; ++i) {
    probes.push_back(RandomQuery(rng));
    pinned_answers.push_back(h1.value()->engine().Exact(probes.back()));
  }

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

  // The pinned generation answers bit-identically to before the swap,
  // and holds the replaced file open...
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(h1.value()->engine().Exact(probes[i]), pinned_answers[i]);
  }
  const std::string replaced = dir.File("m.snap") + " (deleted)";
  EXPECT_EQ(OpenFdsOn(replaced), 1u);
  // ...until the pin drops; then the registry's reclaimer closes it.
  h1 = util::Result<ModelHandle>(ModelHandle());
  EXPECT_TRUE(WaitUntil([&] { return OpenFdsOn(replaced) == 0; }));
  EXPECT_EQ(OpenFdsOn(dir.File("m.snap")), 1u);  // v2, still resident.
}

// A model rewritten in place by WriteSnapshot, while the registry serves
// it: the pinned generation keeps answering from the replaced file, and
// Reload() serves the new one. Truncating the file in place would crash
// the server.
TEST(RegistryTest, RewriteInPlaceKeepsServingAndReloadServesTheNewModel) {
  TempDir dir("karl_reg_rewrite");
  const Engine v1 = WriteModel(dir.File("m.snap"), 61, 20000);
  auto registry = ModelRegistry::Open(dir.File(""), RegistryOptions{});
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();
  auto h1 = reg.Acquire("m");
  ASSERT_TRUE(h1.ok());
  util::Rng rng(62);
  std::vector<std::vector<double>> probes;
  std::vector<double> answers;
  for (int i = 0; i < 20; ++i) {
    probes.push_back(RandomQuery(rng));
    answers.push_back(h1.value()->engine().Exact(probes.back()));
    EXPECT_EQ(answers.back(), v1.Exact(probes.back()));
  }

  const Engine v2 = WriteModel(dir.File("m.snap"), 63, 500);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(h1.value()->engine().Exact(probes[i]), answers[i]);
  }
  ASSERT_TRUE(reg.Reload().ok());
  auto h2 = reg.Acquire("m");
  ASSERT_TRUE(h2.ok());
  for (const auto& q : probes) {
    EXPECT_EQ(h2.value()->engine().Exact(q), v2.Exact(q));
  }
  EXPECT_EQ(DirEntries(dir.File("")), std::vector<std::string>{"m.snap"});
}

// Rename-swap reloads with some generations pinned past their
// replacement: once the handles and the registry are gone, every file
// the registry opened is closed.
TEST(RegistryTest, RenameSwapReloadsCloseEveryReplacedFile) {
  TempDir dir("karl_reg_fds");
  WriteModel(dir.File("m.snap"), 55, 200);
  const size_t baseline = OpenFdCount();
  {
    auto registry = ModelRegistry::Open(dir.File(""), RegistryOptions{});
    ASSERT_TRUE(registry.ok());
    ModelRegistry& reg = *registry.value();
    std::vector<ModelHandle> pinned;
    constexpr int kSwaps = 20;
    for (int i = 0; i < kSwaps; ++i) {
      auto handle = reg.Acquire("m");
      ASSERT_TRUE(handle.ok()) << handle.status().ToString();
      if (i % 2 == 0) pinned.push_back(handle.value());
      // Alternate row counts, so every rewrite changes the file size.
      WriteModel(dir.File("m.snap.tmp"), 56 + i, 200 + 50 * (i % 2 == 0));
      fs::rename(dir.File("m.snap.tmp"), dir.File("m.snap"));
      ASSERT_TRUE(reg.Reload().ok());
    }
    EXPECT_EQ(reg.List()[0].loads, static_cast<uint64_t>(kSwaps) + 1);
    EXPECT_GE(OpenFdsOn(dir.File("m.snap") + " (deleted)"), pinned.size());
  }
  EXPECT_EQ(OpenFdCount(), baseline);
}

// Every resident model holds a descriptor. When the process has none
// left, loading one more model fails with an IOError, the resident
// models keep serving, and the load succeeds once descriptors free up.
TEST(RegistryTest, DescriptorExhaustionFailsOnlyTheLoadThatNeedsOne) {
  TempDir dir("karl_reg_emfile");
  constexpr size_t kModels = 4;
  std::vector<Engine> engines;
  for (size_t i = 0; i < kModels; ++i) {
    engines.push_back(WriteModel(dir.File("m" + std::to_string(i) + ".snap"),
                                 60 + i, 200));
  }
  auto registry = ModelRegistry::Open(dir.File(""), RegistryOptions{});
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();

  // Lower the soft limit so that exactly kFree more descriptors fit.
  std::vector<int> open_fds;
  for (const auto& fd : fs::directory_iterator("/proc/self/fd")) {
    open_fds.push_back(std::stoi(fd.path().filename().string()));
  }
  // The listing's own descriptor is closed by now.
  std::erase_if(open_fds, [](int fd) { return ::fcntl(fd, F_GETFD) == -1; });
  constexpr rlim_t kFree = 2;
  const auto free_below = [&](rlim_t limit) {
    return limit - static_cast<rlim_t>(std::count_if(
                       open_fds.begin(), open_fds.end(), [&](int fd) {
                         return static_cast<rlim_t>(fd) < limit;
                       }));
  };
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = kFree;
  while (free_below(lowered.rlim_cur) < kFree) ++lowered.rlim_cur;
  ASSERT_LE(lowered.rlim_cur, saved.rlim_cur);

  std::vector<ModelHandle> handles;
  util::Status exhausted;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  for (size_t i = 0; i < kModels; ++i) {
    auto handle = reg.Acquire("m" + std::to_string(i));
    if (!handle.ok()) {
      exhausted = handle.status();
      break;
    }
    handles.push_back(handle.value());
  }
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);

  ASSERT_EQ(handles.size(), kFree);
  EXPECT_EQ(exhausted.code(), util::StatusCode::kIOError);
  EXPECT_NE(exhausted.message().find("Too many open files"),
            std::string::npos)
      << exhausted.ToString();
  for (size_t i = kFree; i < kModels; ++i) {
    auto handle = reg.Acquire("m" + std::to_string(i));
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    handles.push_back(handle.value());
  }
  util::Rng rng(61);
  for (size_t i = 0; i < kModels; ++i) {
    const std::vector<double> q = RandomQuery(rng);
    EXPECT_EQ(handles[i]->engine().Exact(q), engines[i].Exact(q)) << i;
  }
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
  // One reload-duration sample per Reload() call.
  const telemetry::HistogramSnapshot reload_us =
      metrics.GetRollingHistogram("karl_model_reload_us")
          ->CumulativeSnapshot();
  EXPECT_EQ(reload_us.count, 1u);
  EXPECT_GT(reload_us.sum, 0.0);
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

// A name registered with AddModelFile keeps its file when the model
// directory holds a file of the same stem: across a reload, and after
// that directory file is deleted.
TEST(RegistryTest, ExplicitFileKeepsItsNameOverSameStemScannedFile) {
  TempDir dir("karl_reg_explicit_stem");
  fs::create_directories(dir.File("models"));
  const Engine named = WriteModel(dir.File("x.snap"), 111, 300);
  const Engine scanned = WriteModel(dir.File("models/x.snap"), 112, 200);

  auto registry = ModelRegistry::Open(dir.File("models"), RegistryOptions{});
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  ModelRegistry& reg = *registry.value();
  ASSERT_TRUE(reg.AddModelFile("x", dir.File("x.snap")).ok());

  util::Rng rng(113);
  const std::vector<double> q = RandomQuery(rng);
  ASSERT_NE(named.Exact(q), scanned.Exact(q));
  const auto expect_named_file = [&](const char* when) {
    auto handle = reg.Acquire("x");
    ASSERT_TRUE(handle.ok()) << when << ": " << handle.status().ToString();
    EXPECT_EQ(handle.value()->engine().Exact(q), named.Exact(q)) << when;
    const auto listed = reg.List();
    ASSERT_EQ(listed.size(), 1u) << when;
    EXPECT_EQ(listed[0].path, dir.File("x.snap")) << when;
  };
  expect_named_file("at registration");
  ASSERT_TRUE(reg.Reload().ok());
  expect_named_file("after a reload");
  ASSERT_TRUE(fs::remove(dir.File("models/x.snap")));
  ASSERT_TRUE(reg.Reload().ok());
  expect_named_file("after the directory file is deleted");
}

// A reload whose changed file fails to load logs a WARN for that model,
// scanned or explicit, returns the error, and keeps the old generation
// serving.
TEST(RegistryTest, FailedReloadWarnsForScannedAndExplicitModels) {
  TempDir dir("karl_reg_reload_failed");
  fs::create_directories(dir.File("models"));
  const std::string scanned_path = dir.File("models/scanned.snap");
  const std::string explicit_path = dir.File("explicit.snap");
  const Engine scanned = WriteModel(scanned_path, 121, 300);
  const Engine named = WriteModel(explicit_path, 122, 300);

  std::FILE* log_file = std::tmpfile();
  ASSERT_NE(log_file, nullptr);
  util::Logger::Options log_options;
  log_options.ndjson = true;
  util::Logger logger(log_file, log_options);
  RegistryOptions options;
  options.logger = &logger;
  auto registry = ModelRegistry::Open(dir.File("models"), options);
  ASSERT_TRUE(registry.ok()) << registry.status().ToString();
  ModelRegistry& reg = *registry.value();
  ASSERT_TRUE(reg.AddModelFile("explicit", explicit_path).ok());

  util::Rng rng(123);
  const std::vector<double> q = RandomQuery(rng);
  auto old_scanned = reg.Acquire("scanned");
  auto old_named = reg.Acquire("explicit");
  ASSERT_TRUE(old_scanned.ok()) << old_scanned.status().ToString();
  ASSERT_TRUE(old_named.ok()) << old_named.status().ToString();

  for (const std::string& path : {scanned_path, explicit_path}) {
    {
      std::ofstream garbage(path + ".tmp", std::ios::binary);
      garbage << "not a snapshot";
    }
    fs::rename(path + ".tmp", path);
  }
  EXPECT_FALSE(reg.Reload().ok());

  EXPECT_EQ(old_scanned.value()->engine().Exact(q), scanned.Exact(q));
  EXPECT_EQ(old_named.value()->engine().Exact(q), named.Exact(q));
  for (const auto& [name, engine] :
       {std::pair<std::string, const Engine*>{"scanned", &scanned},
        {"explicit", &named}}) {
    auto handle = reg.Acquire(name);
    ASSERT_TRUE(handle.ok()) << name << ": " << handle.status().ToString();
    EXPECT_EQ(handle.value()->engine().Exact(q), engine->Exact(q)) << name;
  }

  std::rewind(log_file);
  std::map<std::string, int> warnings;
  char line[4096];
  while (std::fgets(line, sizeof(line), log_file) != nullptr) {
    const std::string_view text(line);
    if (text.find("\"event\":\"model_reload_failed\"") ==
        std::string_view::npos) {
      continue;
    }
    EXPECT_NE(text.find("\"level\":\"warn\""), std::string_view::npos)
        << text;
    for (const char* name : {"scanned", "explicit"}) {
      if (text.find("\"model\":\"" + std::string(name) + "\"") !=
          std::string_view::npos) {
        ++warnings[name];
      }
    }
  }
  std::fclose(log_file);
  EXPECT_EQ(warnings["scanned"], 1);
  EXPECT_EQ(warnings["explicit"], 1);
}

// Four query threads, two threads reloading back to back, and a writer
// that rewrites b by rename, under a budget of about one model. Every
// answer bit-matches one generation of its model, every observed
// change swaps b exactly once, and generations never run ahead of the
// reload count or backwards.
TEST(RegistryTest, ConcurrentAcquireQueryReloadEvictStress) {
  TempDir dir("karl_reg_stress");
  const Engine a = WriteModel(dir.File("a.snap"), 91, 200);
  const Engine b = WriteModel(dir.File("b.snap"), 92, 200);
  const Engine c = WriteModel(dir.File("c.snap"), 93, 200);
  // Alternate version of b (not *.snap, so never scanned itself).
  const Engine b_alt = WriteModel(dir.File("b_alt"), 94, 150);
  const std::string b_bytes[2] = {ReadFileBytes(dir.File("b.snap")),
                                  ReadFileBytes(dir.File("b_alt"))};
  const Engine* b_versions[2] = {&b, &b_alt};

  // Budget fits roughly one model: constant eviction churn.
  uint64_t one_model_bytes = 0;
  {
    auto probe = ModelRegistry::Open(dir.File(""), RegistryOptions{});
    ASSERT_TRUE(probe.ok());
    ASSERT_TRUE(probe.value()->Acquire("a").ok());
    one_model_bytes = probe.value()->resident_bytes();
  }
  // Swaps are counted from the log: one "model_reload" line each.
  std::FILE* log_file = std::tmpfile();
  ASSERT_NE(log_file, nullptr);
  util::Logger::Options log_options;
  log_options.ndjson = true;
  util::Logger logger(log_file, log_options);
  RegistryOptions options;
  options.memory_budget_bytes = one_model_bytes + one_model_bytes / 4;
  options.logger = &logger;
  auto registry = ModelRegistry::Open(dir.File(""), options);
  ASSERT_TRUE(registry.ok());
  ModelRegistry& reg = *registry.value();

  std::atomic<int> failures{0};
  std::atomic<bool> rewriting{true};
  const char* names[3] = {"a", "b", "c"};
  const Engine* engines[3] = {&a, &b, &c};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      util::Rng rng(100 + static_cast<uint64_t>(t));
      for (int iter = 0; iter < 40; ++iter) {
        const int m = (t + iter) % 3;
        auto handle = reg.Acquire(names[m]);
        if (!handle.ok()) {
          ++failures;
          continue;
        }
        const std::vector<double> q = RandomQuery(rng);
        const double exact = handle.value()->engine().Exact(q);
        const bool known =
            m == 1 ? exact == b.Exact(q) || exact == b_alt.Exact(q)
                   : exact == engines[m]->Exact(q);
        if (!known) ++failures;
        handle.value()->engine().Tkaq(q, exact + 0.01);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&] {
      uint64_t last_b_generation = 0;
      while (rewriting.load()) {
        if (!reg.Reload().ok()) ++failures;
        const auto listed = reg.List();
        const uint64_t reloads = reg.reloads();
        for (const auto& info : listed) {
          if (info.generation > reloads) ++failures;
          if (info.name == "b") {
            if (info.generation < last_b_generation) ++failures;
            last_b_generation = info.generation;
          }
        }
      }
    });
  }
  constexpr int kRewrites = 6;
  workers.emplace_back([&] {
    util::Rng rng(110);
    for (int i = 1; i <= kRewrites; ++i) {
      // Pin b's current generation, so b is resident when a reload
      // observes the rewrite: the change must swap, exactly once.
      auto pinned = reg.Acquire("b");
      if (!pinned.ok()) {
        ++failures;
        continue;
      }
      WriteFileBytes(dir.File("b.tmp"), b_bytes[i % 2]);
      std::error_code ec;
      fs::rename(dir.File("b.tmp"), dir.File("b.snap"), ec);
      if (ec) ++failures;
      // Reload r + 1 began after the rename; it has committed once
      // reload r + 2 begins.
      const uint64_t r = reg.reloads();
      while (reg.reloads() < r + 2) std::this_thread::yield();
      const std::vector<double> q = RandomQuery(rng);
      auto fresh = reg.Acquire("b");
      if (!fresh.ok() ||
          fresh.value()->engine().Exact(q) != b_versions[i % 2]->Exact(q) ||
          pinned.value()->engine().Exact(q) !=
              b_versions[(i + 1) % 2]->Exact(q)) {
        ++failures;
      }
    }
    rewriting = false;
  });
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(reg.evictions(), 0u);

  std::rewind(log_file);
  std::map<std::string, int> swaps;
  char line[4096];
  while (std::fgets(line, sizeof(line), log_file) != nullptr) {
    const std::string_view text(line);
    if (text.find("\"event\":\"model_reload\"") == std::string_view::npos) {
      continue;
    }
    for (const char* name : names) {
      if (text.find("\"model\":\"" + std::string(name) + "\"") !=
          std::string_view::npos) {
        ++swaps[name];
      }
    }
  }
  std::fclose(log_file);
  EXPECT_EQ(swaps["a"], 0);
  EXPECT_EQ(swaps["b"], kRewrites);
  EXPECT_EQ(swaps["c"], 0);
}

}  // namespace
}  // namespace karl::registry
