// Zero-deserialization engine snapshots.
//
// A snapshot is a flat, pointer-free, little-endian binary image of a
// *built* engine: the tree node arrays, the permuted points and weights
// in the blocked SoA layout the leaf kernels read (core/simd/
// soa_block.h), the permutation, and the precomputed per-node
// linear-bound aggregates (w_P, a_P, b_P — the coefficients of paper
// Lemma 2/5) plus the node region geometry, each stored as a
// 64-byte-aligned, offset-addressed section. An engine is *constructed
// over* the mapping with mmap(2): attach validates the sections and
// points at them, and copies nothing — the mapped blocks are the tree's
// only copy of its points.
//
// On-disk layout (all integers little-endian; doubles IEEE-754):
//
//   [0,256)  header — magic "KSNP", version, geometry counts, engine
//            options, weighting type, file size, XXH64 (seed 0)
//            checksum of the entire file (checksum field zeroed during
//            hashing).
//   [256,…)  per-tree sections in fixed order, each aligned to 64 bytes:
//            nodes, blocks, perm, weight_sums, sqnorm_sums, point_sums,
//            region_a, region_b. The blocks section holds
//            num_blocks·d·8 coordinates then num_blocks·8 weights
//            (num_blocks = ⌈rows/8⌉; pad lanes of the last block are 0).
//            Type III engines store two trees (positive then negative
//            side); I/II store one.
//
// Section offsets are *derived* from the header counts, not stored: the
// layout is a pure function of (rows, num_nodes, cols, index kind), so a
// reader computes offsets and validates that the final offset equals the
// file size.
//
// Determinism and portability: index construction is deterministic, so
// `karl build` writes identical bytes for identical inputs. The
// blocked layout is the same for every SIMD tier, so a snapshot written
// on one tier loads on any other; answers are then subject to the
// core/simd tolerance contract rather than bit-equality.

#ifndef KARL_REGISTRY_SNAPSHOT_H_
#define KARL_REGISTRY_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>

#include "core/karl.h"
#include "index/tree_index.h"
#include "util/status.h"

namespace karl::registry {

/// Format constants, exported so tests can corrupt specific fields.
inline constexpr uint32_t kSnapshotMagic = 0x504E534Bu;  // "KSNP" LE.
/// Version 2 replaced the v1 FNV-1a checksum with XXH64; version 3
/// replaced the row-major points and weights sections with the blocks
/// section. Older files are rejected as an unsupported version and must
/// be recompiled.
inline constexpr uint32_t kSnapshotVersion = 3;
inline constexpr size_t kSnapshotHeaderBytes = 256;
inline constexpr size_t kSnapshotSectionAlign = 64;
inline constexpr size_t kSnapshotChecksumOffset = 80;

/// Streaming XXH64 with seed 0: the snapshot checksum. Up to 31 bytes
/// that do not yet fill a 32-byte stripe are carried between Update()
/// calls, so any split of the input yields the same digest.
class SnapshotHasher {
 public:
  SnapshotHasher();
  void Update(std::span<const unsigned char> bytes);
  uint64_t Digest() const;

 private:
  uint64_t lanes_[4];
  uint64_t total_ = 0;
  unsigned char tail_[32] = {};
  size_t tail_len_ = 0;
};

/// One-shot SnapshotHasher over `bytes`. A file's stored checksum is this
/// value over the whole file with the checksum field zeroed.
uint64_t SnapshotChecksum(std::span<const unsigned char> bytes);

/// A check of a fully written snapshot file, run by WriteSnapshot before
/// the file takes its name; a non-OK status aborts the write.
using SnapshotCheck = std::function<util::Status(const std::string& path)>;

/// Serializes a built engine to `path`. The engine may itself be
/// attached (re-snapshotting round-trips). The bytes go to a new file
/// beside `path` ("<path>.<pid>-<n>.tmp", which a registry scan skips),
/// `check` (if set) runs on it, and a rename(2) then puts it in place of
/// any existing `path`. A process that has the old file mapped keeps
/// reading the old bytes, where rewriting it in place would kill it with
/// SIGBUS. On any failure the new file is removed and `path` is left as
/// it was.
util::Status WriteSnapshot(const std::string& path, const Engine& engine,
                           const SnapshotCheck& check = nullptr);

/// A validated, read-only mmap(2) of a snapshot file.
///
/// Map() maps the file, verifies magic/version/size/checksum, and
/// resolves the per-tree section views; every failure names the path,
/// and any file that does not start with the magic — however short — is
/// rejected as "not a KARL snapshot".
/// The mapping (and therefore every engine attached over it) stays valid
/// until destruction — including after the file is unlinked, per POSIX
/// mmap semantics. Truncating a live snapshot file in place is NOT safe
/// (SIGBUS on fault); replace it by rename, as WriteSnapshot does, and
/// reload instead.
///
/// The file descriptor stays open as long as the mapping does, and the
/// destructor unmaps and then closes it. The split matters for a file
/// that a rename has replaced: the kernel frees such a file's page cache
/// at its last reference, which the open descriptor makes the close, not
/// the munmap. A registry-loaded model closes it on another thread.
class MappedSnapshot {
 public:
  static util::Result<MappedSnapshot> Map(const std::string& path);

  ~MappedSnapshot();
  MappedSnapshot(MappedSnapshot&& other) noexcept;
  MappedSnapshot& operator=(MappedSnapshot&& other) noexcept;
  MappedSnapshot(const MappedSnapshot&) = delete;
  MappedSnapshot& operator=(const MappedSnapshot&) = delete;

  /// Engine construction options recorded in the header (kernel, bounds,
  /// index kind, leaf capacity; telemetry sinks are left null).
  const EngineOptions& options() const { return options_; }

  /// Weighting taxonomy of the serialized engine.
  WeightingType weighting() const { return weighting_; }

  /// 1 (Type I/II) or 2 (Type III: positive then negative side).
  size_t num_trees() const { return num_trees_; }

  /// Section views of tree `i` (< num_trees()), pointing into the
  /// mapping. Valid for this object's lifetime.
  const index::TreeIndexView& tree_view(size_t i) const {
    return views_[i];
  }

  /// Total mapped bytes (the file size).
  size_t file_bytes() const { return bytes_; }

  /// The path the snapshot was mapped from (diagnostics).
  const std::string& path() const { return path_; }

 private:
  friend class LoadedModel;  // Closes the descriptor on another thread.

  MappedSnapshot() = default;

  // Unmaps the file now and returns its still-open descriptor, which
  // the caller must close; -1 when nothing is mapped. Afterwards the
  // object is empty and every attached engine is invalid. Closing the
  // last descriptor of a replaced 11 MB snapshot takes ~8 ms, so the
  // registry's LoadedModel hands it to a thread of its own.
  [[nodiscard]] int Unmap();

  util::Status Parse();  // Fills options_/weighting_/views_ from data_.

  void* data_ = nullptr;  // nullptr iff moved-from/default.
  size_t bytes_ = 0;
  int fd_ = -1;           // Open iff data_ is mapped.
  std::string path_;
  EngineOptions options_;
  WeightingType weighting_ = WeightingType::kTypeI;
  size_t num_trees_ = 0;
  index::TreeIndexView views_[2];
};

/// Constructs an engine over a mapped snapshot (no copies; see
/// TreeIndex::AttachShared for what is validated). `snapshot` must outlive the returned engine —
/// callers typically keep both in one owning object (registry
/// LoadedModel). `metrics`/`tracer` may be null.
util::Result<Engine> AttachEngine(const MappedSnapshot& snapshot,
                                  telemetry::Registry* metrics,
                                  telemetry::TraceRecorder* tracer);

}  // namespace karl::registry

#endif  // KARL_REGISTRY_SNAPSHOT_H_
