#include "registry/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "index/ball_tree.h"
#include "index/kd_tree.h"
#include "util/errno.h"

namespace karl::registry {

namespace {

// The format is defined little-endian and the writer/reader move raw
// host memory; refuse to build on exotic hosts rather than write a
// byte-swapped file that claims to be valid.
static_assert(std::endian::native == std::endian::little,
              "snapshot format requires a little-endian host");
static_assert(sizeof(size_t) == sizeof(uint64_t),
              "snapshot perm sections are u64; need an LP64 host");

using Node = index::TreeIndex::Node;
using Blocks = core::simd::SoaLeafBlocks;
static_assert(sizeof(Node) == 20 && offsetof(Node, left) == 0 &&
                  offsetof(Node, right) == 4 && offsetof(Node, begin) == 8 &&
                  offsetof(Node, end) == 12 && offsetof(Node, depth) == 16 &&
                  offsetof(Node, pad) == 18,
              "Node layout is part of the snapshot format");

// Header field offsets (bytes). Reserved tail is zero.
constexpr size_t kOffMagic = 0;
constexpr size_t kOffVersion = 4;
constexpr size_t kOffHeaderBytes = 8;
constexpr size_t kOffIndexKind = 12;
constexpr size_t kOffKernelType = 16;
constexpr size_t kOffKernelDegree = 20;
constexpr size_t kOffKernelGamma = 24;
constexpr size_t kOffKernelBeta = 32;
constexpr size_t kOffBoundKind = 40;
constexpr size_t kOffWeighting = 44;
constexpr size_t kOffNumTrees = 48;
constexpr size_t kOffLeafCapacity = 56;
constexpr size_t kOffCols = 64;
constexpr size_t kOffFileBytes = 72;
constexpr size_t kOffChecksum = 80;
constexpr size_t kOffTreeBlock = 88;  // Per tree: rows, num_nodes, max_depth.
constexpr size_t kTreeBlockBytes = 24;
constexpr size_t kOffFrame = 136;       // u32: the frame's reflectors, k.
constexpr size_t kOffFrameRatio = 144;  // f64: the fit's extent ratio.
static_assert(kOffChecksum == kSnapshotChecksumOffset);
static_assert(kOffTreeBlock + 2 * kTreeBlockBytes <= kOffFrame);
static_assert(kOffFrame == kSnapshotFrameAxesOffset);
static_assert(kOffFrameRatio + sizeof(double) <= kSnapshotHeaderBytes);

void PutU32(unsigned char* buf, size_t off, uint32_t v) {
  std::memcpy(buf + off, &v, sizeof(v));
}
void PutU64(unsigned char* buf, size_t off, uint64_t v) {
  std::memcpy(buf + off, &v, sizeof(v));
}
void PutF64(unsigned char* buf, size_t off, double v) {
  std::memcpy(buf + off, &v, sizeof(v));
}
uint32_t GetU32(const unsigned char* buf, size_t off) {
  uint32_t v;
  std::memcpy(&v, buf + off, sizeof(v));
  return v;
}
uint64_t GetU64(const unsigned char* buf, size_t off) {
  uint64_t v;
  std::memcpy(&v, buf + off, sizeof(v));
  return v;
}
double GetF64(const unsigned char* buf, size_t off) {
  double v;
  std::memcpy(&v, buf + off, sizeof(v));
  return v;
}

// XXH64 primes (Collet's published specification).
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ull;
constexpr size_t kStripeBytes = 32;

uint64_t Round(uint64_t acc, uint64_t input) {
  return std::rotl(acc + input * kPrime2, 31) * kPrime1;
}

uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  return (acc ^ Round(0, lane)) * kPrime1 + kPrime4;
}

// Folds whole 32-byte stripes of `p` into the four lanes; returns the
// number of bytes consumed (a multiple of kStripeBytes).
size_t ConsumeStripes(uint64_t lanes[4], const unsigned char* p, size_t n) {
  uint64_t v0 = lanes[0], v1 = lanes[1], v2 = lanes[2], v3 = lanes[3];
  size_t i = 0;
  for (; i + kStripeBytes <= n; i += kStripeBytes) {
    v0 = Round(v0, GetU64(p, i));
    v1 = Round(v1, GetU64(p, i + 8));
    v2 = Round(v2, GetU64(p, i + 16));
    v3 = Round(v3, GetU64(p, i + 24));
  }
  lanes[0] = v0;
  lanes[1] = v1;
  lanes[2] = v2;
  lanes[3] = v3;
  return i;
}

size_t AlignUp(size_t v) {
  return (v + kSnapshotSectionAlign - 1) & ~(kSnapshotSectionAlign - 1);
}

// Byte offsets of one tree's sections; a pure function of the header
// counts (offsets are derived, never stored).
struct SectionLayout {
  size_t nodes, planes, perm;
  size_t weight_sums, sqnorm_sums, point_sums;
  size_t region_a, region_b;
  size_t end;  // First byte past this tree (aligned).
};

SectionLayout ComputeLayout(size_t start, uint64_t rows, uint64_t num_nodes,
                            uint64_t cols, index::IndexKind kind) {
  SectionLayout out;
  size_t off = AlignUp(start);
  const auto section = [&off](uint64_t bytes) {
    const size_t at = off;
    off = AlignUp(off + bytes);
    return at;
  };
  // One planes section: each 16-row group's hi plane, then its lo plane
  // (soa_block.h), every plane row one 64-byte line of 32-bit words.
  out.nodes = section(num_nodes * sizeof(Node));
  out.planes = section(Blocks::PlaneWords(rows, cols) * sizeof(uint32_t));
  out.perm = section(rows * sizeof(uint64_t));
  out.weight_sums = section(num_nodes * sizeof(double));
  out.sqnorm_sums = section(num_nodes * sizeof(double));
  out.point_sums = section(num_nodes * cols * sizeof(double));
  out.region_a = section(num_nodes * cols * sizeof(double));
  const uint64_t region_b_count =
      kind == index::IndexKind::kKdTree ? num_nodes * cols : num_nodes;
  out.region_b = section(region_b_count * sizeof(double));
  out.end = off;
  return out;
}

// Writes zero padding up to `target`, then `len` bytes of `data`;
// everything written also feeds the checksum.
util::Status WriteSection(std::ostream& out, SnapshotHasher& hasher,
                          size_t* cur, size_t target, const void* data,
                          size_t len) {
  static constexpr char kZeros[kSnapshotSectionAlign] = {};
  while (*cur < target) {
    const size_t pad = std::min(target - *cur, sizeof(kZeros));
    out.write(kZeros, static_cast<std::streamsize>(pad));
    hasher.Update({reinterpret_cast<const unsigned char*>(kZeros), pad});
    *cur += pad;
  }
  if (len > 0) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(len));
    hasher.Update({static_cast<const unsigned char*>(data), len});
    *cur += len;
  }
  if (!out) return util::Status::IOError("snapshot write failed");
  return util::Status::OK();
}

}  // namespace

SnapshotHasher::SnapshotHasher()
    : lanes_{kPrime1 + kPrime2, kPrime2, 0, 0 - kPrime1} {}

void SnapshotHasher::Update(std::span<const unsigned char> bytes) {
  const unsigned char* p = bytes.data();
  size_t n = bytes.size();
  total_ += n;
  if (tail_len_ + n < kStripeBytes) {
    if (n > 0) std::memcpy(tail_ + tail_len_, p, n);
    tail_len_ += n;
    return;
  }
  if (tail_len_ > 0) {
    const size_t fill = kStripeBytes - tail_len_;
    std::memcpy(tail_ + tail_len_, p, fill);
    ConsumeStripes(lanes_, tail_, kStripeBytes);
    p += fill;
    n -= fill;
  }
  const size_t used = ConsumeStripes(lanes_, p, n);
  tail_len_ = n - used;
  if (tail_len_ > 0) std::memcpy(tail_, p + used, tail_len_);
}

uint64_t SnapshotHasher::Digest() const {
  uint64_t h;
  if (total_ >= kStripeBytes) {
    h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) +
        std::rotl(lanes_[2], 12) + std::rotl(lanes_[3], 18);
    for (const uint64_t lane : lanes_) h = MergeRound(h, lane);
  } else {
    h = kPrime5;  // Seed 0 plus kPrime5.
  }
  h += total_;
  size_t i = 0;
  for (; i + 8 <= tail_len_; i += 8) {
    h = std::rotl(h ^ Round(0, GetU64(tail_, i)), 27) * kPrime1 + kPrime4;
  }
  if (i + 4 <= tail_len_) {
    h = std::rotl(h ^ uint64_t{GetU32(tail_, i)} * kPrime1, 23) * kPrime2 +
        kPrime3;
    i += 4;
  }
  for (; i < tail_len_; ++i) {
    h = std::rotl(h ^ tail_[i] * kPrime5, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

uint64_t SnapshotChecksum(std::span<const unsigned char> bytes) {
  SnapshotHasher hasher;
  hasher.Update(bytes);
  return hasher.Digest();
}

namespace {

// Creates an empty file beside `path`, named "<path>.<pid>-<n>.tmp",
// that no other writer is using, and returns its name. The extension is
// not .snap, so a registry scan never loads it.
util::Result<std::string> CreateTemporaryBeside(const std::string& path) {
  static std::atomic<uint64_t> next{0};
  constexpr int kAttempts = 64;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    std::string temp = path + "." + std::to_string(::getpid()) + "-" +
                       std::to_string(next.fetch_add(1)) + ".tmp";
    const int fd =
        ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd >= 0) {
      ::close(fd);
      return temp;
    }
    if (errno != EEXIST) {
      return util::Status::IOError("cannot create " + temp + ": " +
                                   util::ErrnoString(errno));
    }
  }
  return util::Status::IOError("cannot create a temporary file beside " +
                               path);
}

// Writes the snapshot of `engine` to `path`, which exists and is empty.
util::Status WriteSnapshotFile(const std::string& path, const Engine& engine) {
  const index::TreeIndex* trees[2] = {&engine.plus_tree(),
                                      engine.minus_tree()};
  const size_t num_trees = trees[1] != nullptr ? 2 : 1;
  const uint64_t cols = trees[0]->points().dims();
  const EngineOptions& options = engine.options();

  // The frame, shared by both trees, right after the header.
  const std::span<const double> frame = trees[0]->frame();
  const size_t frame_at = AlignUp(kSnapshotHeaderBytes);
  size_t off = frame.empty()
                   ? kSnapshotHeaderBytes
                   : AlignUp(frame_at + frame.size() * sizeof(double));
  SectionLayout layouts[2];
  for (size_t t = 0; t < num_trees; ++t) {
    layouts[t] = ComputeLayout(off, trees[t]->points().rows(),
                               trees[t]->num_nodes(), cols,
                               options.index_kind);
    off = layouts[t].end;
  }
  const uint64_t file_bytes = off;

  unsigned char header[kSnapshotHeaderBytes] = {};
  PutU32(header, kOffMagic, kSnapshotMagic);
  PutU32(header, kOffVersion, kSnapshotVersion);
  PutU32(header, kOffHeaderBytes, kSnapshotHeaderBytes);
  PutU32(header, kOffIndexKind, static_cast<uint32_t>(options.index_kind));
  PutU32(header, kOffKernelType, static_cast<uint32_t>(options.kernel.type));
  PutU32(header, kOffKernelDegree,
         static_cast<uint32_t>(options.kernel.degree));
  PutF64(header, kOffKernelGamma, options.kernel.gamma);
  PutF64(header, kOffKernelBeta, options.kernel.beta);
  PutU32(header, kOffBoundKind, static_cast<uint32_t>(options.bounds));
  PutU32(header, kOffWeighting,
         static_cast<uint32_t>(engine.weighting_type()));
  PutU32(header, kOffNumTrees, static_cast<uint32_t>(num_trees));
  PutU64(header, kOffLeafCapacity, options.leaf_capacity);
  PutU64(header, kOffCols, cols);
  PutU64(header, kOffFileBytes, file_bytes);
  PutU32(header, kOffFrame, static_cast<uint32_t>(frame.size() / cols));
  PutF64(header, kOffFrameRatio, trees[0]->frame_extent_ratio());
  // Checksum field stays zero for hashing; patched in at the end.
  for (size_t t = 0; t < num_trees; ++t) {
    const size_t at = kOffTreeBlock + t * kTreeBlockBytes;
    PutU64(header, at, trees[t]->points().rows());
    PutU64(header, at + 8, trees[t]->num_nodes());
    PutU64(header, at + 16, trees[t]->max_depth());
  }

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::IOError("cannot open " + path + " for writing: " +
                                 util::ErrnoString(errno));
  }
  SnapshotHasher hasher;
  hasher.Update(header);
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  size_t cur = kSnapshotHeaderBytes;
  KARL_RETURN_NOT_OK(WriteSection(out, hasher, &cur, frame_at, frame.data(),
                                  frame.size() * sizeof(double)));

  for (size_t t = 0; t < num_trees; ++t) {
    const index::TreeIndex& tree = *trees[t];
    const SectionLayout& sec = layouts[t];
    const auto nodes = tree.nodes();
    const auto planes = tree.points().planes();
    const auto perm = tree.original_indices();
    const auto wsums = tree.node_weight_sums();
    const auto sqsums = tree.node_sqnorm_sums();
    const auto psums = tree.node_point_sums();
    const auto region_a = tree.region_data_a();
    const auto region_b = tree.region_data_b();
    KARL_RETURN_NOT_OK(WriteSection(out, hasher, &cur, sec.nodes,
                                    nodes.data(),
                                    nodes.size() * sizeof(Node)));
    KARL_RETURN_NOT_OK(WriteSection(out, hasher, &cur, sec.planes,
                                    planes.data(), planes.size_bytes()));
    KARL_RETURN_NOT_OK(WriteSection(out, hasher, &cur, sec.perm, perm.data(),
                                    perm.size() * sizeof(uint64_t)));
    KARL_RETURN_NOT_OK(WriteSection(out, hasher, &cur, sec.weight_sums,
                                    wsums.data(),
                                    wsums.size() * sizeof(double)));
    KARL_RETURN_NOT_OK(WriteSection(out, hasher, &cur, sec.sqnorm_sums,
                                    sqsums.data(),
                                    sqsums.size() * sizeof(double)));
    KARL_RETURN_NOT_OK(WriteSection(out, hasher, &cur, sec.point_sums,
                                    psums.data(),
                                    psums.size() * sizeof(double)));
    KARL_RETURN_NOT_OK(WriteSection(out, hasher, &cur, sec.region_a,
                                    region_a.data(),
                                    region_a.size() * sizeof(double)));
    KARL_RETURN_NOT_OK(WriteSection(out, hasher, &cur, sec.region_b,
                                    region_b.data(),
                                    region_b.size() * sizeof(double)));
  }
  // Trailing alignment padding so the file ends exactly at the computed
  // layout end (readers validate file size against it).
  KARL_RETURN_NOT_OK(
      WriteSection(out, hasher, &cur, file_bytes, nullptr, 0));

  out.seekp(static_cast<std::streamoff>(kOffChecksum));
  const uint64_t checksum = hasher.Digest();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  out.close();
  if (!out) {
    return util::Status::IOError("snapshot write to " + path + " failed");
  }
  return util::Status::OK();
}

}  // namespace

util::Status WriteSnapshot(const std::string& path, const Engine& engine,
                           const SnapshotCheck& check) {
  auto temp = CreateTemporaryBeside(path);
  if (!temp.ok()) return temp.status();
  const std::string& temp_path = temp.value();
  util::Status status = WriteSnapshotFile(temp_path, engine);
  if (status.ok() && check) status = check(temp_path);
  if (status.ok() && std::rename(temp_path.c_str(), path.c_str()) != 0) {
    status = util::Status::IOError("cannot rename " + temp_path + " to " +
                                   path + ": " + util::ErrnoString(errno));
  }
  if (!status.ok()) ::unlink(temp_path.c_str());
  return status;
}

MappedSnapshot::~MappedSnapshot() {
  const int fd = Unmap();
  if (fd >= 0) ::close(fd);
}

MappedSnapshot::MappedSnapshot(MappedSnapshot&& other) noexcept {
  *this = std::move(other);
}

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this == &other) return *this;
  const int fd = Unmap();
  if (fd >= 0) ::close(fd);
  data_ = std::exchange(other.data_, nullptr);
  bytes_ = std::exchange(other.bytes_, 0);
  fd_ = std::exchange(other.fd_, -1);
  path_ = std::move(other.path_);
  options_ = other.options_;
  weighting_ = other.weighting_;
  num_trees_ = std::exchange(other.num_trees_, 0);
  views_[0] = other.views_[0];
  views_[1] = other.views_[1];
  return *this;
}

int MappedSnapshot::Unmap() {
  if (data_ != nullptr) ::munmap(data_, bytes_);
  data_ = nullptr;
  bytes_ = 0;
  num_trees_ = 0;
  return std::exchange(fd_, -1);
}

util::Result<MappedSnapshot> MappedSnapshot::Map(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return util::Status::IOError("cannot open snapshot " + path + ": " +
                                 util::ErrnoString(errno));
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return util::Status::IOError("cannot stat snapshot " + path + ": " +
                                 util::ErrnoString(err));
  }
  const size_t bytes = static_cast<size_t>(st.st_size);
  if (bytes < kSnapshotHeaderBytes) {
    // Too short for a header: a foreign file still fails as "not a
    // snapshot", like every other file without the magic.
    unsigned char magic[4] = {};
    const bool has_magic =
        ::pread(fd, magic, sizeof(magic), 0) ==
            static_cast<ssize_t>(sizeof(magic)) &&
        GetU32(magic, 0) == kSnapshotMagic;
    ::close(fd);
    if (!has_magic) {
      return util::Status::InvalidArgument(
          "snapshot " + path + ": bad magic (not a KARL snapshot)");
    }
    return util::Status::InvalidArgument(
        "truncated snapshot " + path + ": " + std::to_string(bytes) +
        " bytes is smaller than the header");
  }
  void* map = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  if (map == MAP_FAILED) {
    const int err = errno;
    ::close(fd);
    return util::Status::IOError("cannot mmap snapshot " + path + ": " +
                                 util::ErrnoString(err));
  }

  // The descriptor stays open for the life of the mapping; see Unmap().
  MappedSnapshot snap;
  snap.data_ = map;
  snap.bytes_ = bytes;
  snap.fd_ = fd;
  snap.path_ = path;
  KARL_RETURN_NOT_OK(snap.Parse());  // Destructor unmaps and closes.
  return snap;
}

util::Status MappedSnapshot::Parse() {
  const auto* base = static_cast<const unsigned char*>(data_);
  const auto reject = [this](const std::string& why) {
    return util::Status::InvalidArgument("snapshot " + path_ + ": " + why);
  };

  if (GetU32(base, kOffMagic) != kSnapshotMagic) {
    return reject("bad magic (not a KARL snapshot)");
  }
  if (GetU32(base, kOffVersion) != kSnapshotVersion) {
    return reject("unsupported format version " +
                  std::to_string(GetU32(base, kOffVersion)));
  }
  if (GetU32(base, kOffHeaderBytes) != kSnapshotHeaderBytes) {
    return reject("bad header size");
  }
  if (GetU64(base, kOffFileBytes) != bytes_) {
    return reject("file is " + std::to_string(bytes_) +
                  " bytes but header records " +
                  std::to_string(GetU64(base, kOffFileBytes)));
  }

  // Whole-file checksum with the stored checksum field zeroed.
  unsigned char header_copy[kSnapshotHeaderBytes];
  std::memcpy(header_copy, base, kSnapshotHeaderBytes);
  PutU64(header_copy, kOffChecksum, 0);
  SnapshotHasher hasher;
  hasher.Update(header_copy);
  hasher.Update({base + kSnapshotHeaderBytes, bytes_ - kSnapshotHeaderBytes});
  if (hasher.Digest() != GetU64(base, kOffChecksum)) {
    return reject("checksum mismatch (corrupt or partially written file)");
  }

  const uint32_t kernel_type = GetU32(base, kOffKernelType);
  const uint32_t bound_kind = GetU32(base, kOffBoundKind);
  const uint32_t index_kind = GetU32(base, kOffIndexKind);
  const uint32_t weighting = GetU32(base, kOffWeighting);
  const uint32_t num_trees = GetU32(base, kOffNumTrees);
  if (kernel_type > static_cast<uint32_t>(core::KernelType::kSigmoid) ||
      bound_kind > static_cast<uint32_t>(core::BoundKind::kKarlTangentOnly) ||
      index_kind > static_cast<uint32_t>(index::IndexKind::kBallTree)) {
    return reject("corrupt header enums");
  }
  if (weighting < 1 || weighting > 3) return reject("corrupt weighting type");
  if (num_trees < 1 || num_trees > 2) return reject("corrupt tree count");
  if ((weighting == static_cast<uint32_t>(WeightingType::kTypeIII)) !=
      (num_trees == 2)) {
    return reject("weighting type and tree count disagree");
  }

  options_ = EngineOptions{};
  options_.kernel.type = static_cast<core::KernelType>(kernel_type);
  options_.kernel.degree = static_cast<int>(GetU32(base, kOffKernelDegree));
  options_.kernel.gamma = GetF64(base, kOffKernelGamma);
  options_.kernel.beta = GetF64(base, kOffKernelBeta);
  options_.bounds = static_cast<core::BoundKind>(bound_kind);
  options_.index_kind = static_cast<index::IndexKind>(index_kind);
  options_.leaf_capacity = GetU64(base, kOffLeafCapacity);
  weighting_ = static_cast<WeightingType>(weighting);
  num_trees_ = num_trees;

  const uint64_t cols = GetU64(base, kOffCols);
  if (cols == 0) return reject("zero columns");
  if (options_.leaf_capacity == 0) return reject("zero leaf capacity");

  // The frame section, if any, comes first; the structural checks of its
  // values are the attach's (TreeIndex::AttachShared).
  const uint32_t frame_axes = GetU32(base, kOffFrame);
  const double frame_ratio = GetF64(base, kOffFrameRatio);
  std::span<const double> frame;
  size_t off = kSnapshotHeaderBytes;
  if (frame_axes > 0) {
    if (options_.index_kind != index::IndexKind::kKdTree) {
      return reject("a frame on a ball-tree snapshot");
    }
    if (cols < 2 || cols > index::kMaxFrameDims) {
      return reject("a frame at " + std::to_string(cols) +
                    " dimensions (a frame needs 2 to " +
                    std::to_string(index::kMaxFrameDims) + ")");
    }
    if (frame_axes > cols) {
      return reject("a frame of " + std::to_string(frame_axes) +
                    " reflectors at " + std::to_string(cols) + " dimensions");
    }
    const size_t frame_at = AlignUp(kSnapshotHeaderBytes);
    frame = {reinterpret_cast<const double*>(base + frame_at),
             frame_axes * cols};
    off = AlignUp(frame_at + frame.size_bytes());
    if (off > bytes_) return reject("frame section overruns the file");
  }

  for (size_t t = 0; t < num_trees_; ++t) {
    const size_t at = kOffTreeBlock + t * kTreeBlockBytes;
    const uint64_t rows = GetU64(base, at);
    const uint64_t num_nodes = GetU64(base, at + 8);
    const uint64_t max_depth = GetU64(base, at + 16);
    // Sanity caps: refuse layouts that cannot come from a real build
    // (node ranges are u32; corrupt counts would overflow the layout
    // arithmetic before the structural sweep could catch them).
    if (rows == 0 || rows > (1ull << 32) ||
        rows > (1ull << 40) / cols) {
      return reject("corrupt row count for tree " + std::to_string(t));
    }
    if (num_nodes == 0 || num_nodes > 2 * rows ||
        max_depth >= (1ull << 16)) {
      return reject("corrupt node count for tree " + std::to_string(t));
    }
    const SectionLayout sec = ComputeLayout(off, rows, num_nodes, cols,
                                            options_.index_kind);
    if (sec.end > bytes_) {
      return reject("sections overrun the file for tree " +
                    std::to_string(t));
    }
    index::TreeIndexView& view = views_[t];
    view.nodes = {reinterpret_cast<const Node*>(base + sec.nodes),
                  num_nodes};
    view.rows = rows;
    view.cols = cols;
    view.planes = {reinterpret_cast<const uint32_t*>(base + sec.planes),
                   Blocks::PlaneWords(rows, cols)};
    view.perm = {reinterpret_cast<const size_t*>(base + sec.perm), rows};
    view.weight_sums = {
        reinterpret_cast<const double*>(base + sec.weight_sums), num_nodes};
    view.sqnorm_sums = {
        reinterpret_cast<const double*>(base + sec.sqnorm_sums), num_nodes};
    view.point_sums = {
        reinterpret_cast<const double*>(base + sec.point_sums),
        num_nodes * cols};
    view.region_a = {reinterpret_cast<const double*>(base + sec.region_a),
                     num_nodes * cols};
    const uint64_t region_b_count =
        options_.index_kind == index::IndexKind::kKdTree ? num_nodes * cols
                                                         : num_nodes;
    view.region_b = {reinterpret_cast<const double*>(base + sec.region_b),
                     region_b_count};
    view.leaf_capacity = options_.leaf_capacity;
    view.max_depth = max_depth;
    view.frame = frame;
    view.frame_extent_ratio = frame_ratio;
    off = sec.end;
  }
  if (off != bytes_) {
    return reject("file size does not match the computed section layout");
  }
  return util::Status::OK();
}

util::Result<Engine> AttachEngine(const MappedSnapshot& snapshot,
                                  telemetry::Registry* metrics,
                                  telemetry::TraceRecorder* tracer) {
  EngineOptions options = snapshot.options();
  options.metrics = metrics;
  options.tracer = tracer;

  const auto make_tree = [&options](const index::TreeIndexView& view)
      -> util::Result<std::unique_ptr<index::TreeIndex>> {
    if (options.index_kind == index::IndexKind::kKdTree) {
      auto tree = index::KdTree::Attach(view);
      if (!tree.ok()) return tree.status();
      return std::unique_ptr<index::TreeIndex>(
          std::move(tree).ValueOrDie());
    }
    auto tree = index::BallTree::Attach(view);
    if (!tree.ok()) return tree.status();
    return std::unique_ptr<index::TreeIndex>(std::move(tree).ValueOrDie());
  };

  auto plus = make_tree(snapshot.tree_view(0));
  if (!plus.ok()) {
    return util::Status::InvalidArgument(
        "snapshot " + snapshot.path() + ": " + plus.status().message());
  }
  std::unique_ptr<index::TreeIndex> minus;
  if (snapshot.num_trees() == 2) {
    auto result = make_tree(snapshot.tree_view(1));
    if (!result.ok()) {
      return util::Status::InvalidArgument(
          "snapshot " + snapshot.path() + ": " + result.status().message());
    }
    minus = std::move(result).ValueOrDie();
  }
  return Engine::Attach(std::move(plus).ValueOrDie(), std::move(minus),
                        snapshot.weighting(), options);
}

}  // namespace karl::registry
