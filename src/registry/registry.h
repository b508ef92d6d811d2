// Multi-model serving registry: named models, lazy mmap, LRU eviction.
//
// A ModelRegistry maps model names to mmap snapshot files
// (registry/snapshot.h, the only persisted engine format) and serves
// refcounted engine handles to the query path:
//
//   * Lazy residency — a model is mapped and attached on first Acquire,
//     not at scan time. Cold-start latency is recorded per model.
//   * Pinning — Acquire returns a shared_ptr handle; a model's mapping
//     is released only when the registry entry drops it AND every
//     in-flight query handle is gone, so eviction never unmaps memory a
//     query is reading (RCU-style grace period via shared_ptr).
//   * LRU eviction — when resident bytes exceed the budget, the least
//     recently used unpinned model is released. Entries whose handles
//     are still held by queries are skipped (pinned).
//   * Hot reload — Reload() rescans the directory, so new files appear
//     and deleted ones disappear, then stats every entry's own file:
//     changed files (size/mtime) are re-loaded and swapped in
//     atomically, so in-flight queries finish on the old mapping and
//     new queries see the new one. A name registered by AddModelFile
//     keeps its file even when the directory holds the same stem.
//
// Thread safety: every public method is safe to call concurrently; one
// annotated util::Mutex (mu_) guards the table, and loads run under it.
// Measured on a 4-vCPU host (ext4, page cache warm), a reload of a
// changed 10.7 MB snapshot cost 8.3 ms and of a 17.9 MB one 13–15 ms.
// Map plus attach was only 2.0–3.6 ms of that. The rest was the kernel
// freeing the page cache of the file the rename replaced, at the last
// reference to that file. Hence the rules:
//   * A snapshot keeps its descriptor open while mapped. When a loaded
//     model dies, it unmaps on the thread that dropped the last handle
//     (0.03 ms), and hands the descriptor to the registry's reclaimer
//     thread, which closes it. So no caller, and nothing under mu_,
//     waits for that page cache to be freed.
//   * Reload() releases the generations it replaces or drops after mu_.
//   * Map, checksum and attach of a changed or cold model still run
//     under mu_ (2–4 ms at 11–18 MB), and other acquires wait for them.
//
// Cost: one open file descriptor per live mapping — every resident
// model, every generation a query still pins, and every close still
// queued on the reclaimer. A registry of N resident models needs N
// descriptors beyond the process's own; karl_server raises its soft
// RLIMIT_NOFILE to the hard limit at start for this. Past the limit,
// loading another model fails with an IOError ("Too many open files"),
// and the resident models keep serving.

#ifndef KARL_REGISTRY_REGISTRY_H_
#define KARL_REGISTRY_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/karl.h"
#include "registry/snapshot.h"
#include "util/log.h"
#include "util/mutex.h"
#include "util/status.h"

namespace karl::registry {

class FdReclaimer;  // Closes replaced snapshots' descriptors; registry.cc.

/// Registry construction parameters.
struct RegistryOptions {
  /// Model served when a request names none. Empty: single-model
  /// registries fall back to their only model; multi-model registries
  /// reject unnamed requests.
  std::string default_model;
  /// Resident-byte budget enforced by LRU eviction; 0 = unlimited.
  uint64_t memory_budget_bytes = 0;
  telemetry::Registry* metrics = nullptr;   ///< Null disables metrics.
  util::Logger* logger = nullptr;           ///< Null disables logging.
};

/// One resident model: the engine plus the snapshot mapping it views.
/// Immutable after construction; destroyed when the registry entry and
/// every query handle release it. The destructor unmaps at once and
/// leaves the close of the file to the registry's reclaimer thread.
class LoadedModel {
 public:
  ~LoadedModel();
  LoadedModel(const LoadedModel&) = delete;
  LoadedModel& operator=(const LoadedModel&) = delete;

  const Engine& engine() const { return *engine_; }
  /// Registry name the model was loaded under.
  const std::string& name() const { return name_; }
  /// Bytes this model keeps resident (mapped sections + derived heap).
  size_t resident_bytes() const { return resident_bytes_; }
  /// Load latency (mmap + attach), microseconds.
  uint64_t coldstart_us() const { return coldstart_us_; }

 private:
  friend class ModelRegistry;
  LoadedModel() = default;

  std::string name_;
  // engine_ views the mapping; the destructor drops it before unmapping.
  std::optional<MappedSnapshot> snapshot_;
  std::unique_ptr<Engine> engine_;
  // Closes snapshot_'s descriptor; shared so it outlives the registry.
  std::shared_ptr<FdReclaimer> reclaimer_;
  size_t resident_bytes_ = 0;
  uint64_t coldstart_us_ = 0;
};

/// Refcounted pin on a resident model. Holding it keeps the engine (and
/// any backing mapping) valid even across eviction or hot reload.
using ModelHandle = std::shared_ptr<const LoadedModel>;

/// Per-model state for /modelz and tests.
struct ModelInfo {
  std::string name;
  std::string path;
  bool resident = false;
  uint64_t file_bytes = 0;
  uint64_t resident_bytes = 0;  ///< 0 when not resident.
  uint64_t coldstart_us = 0;    ///< Last load; 0 before first load.
  uint64_t queries = 0;
  uint64_t loads = 0;
  uint64_t evictions = 0;
  /// reloads() count when the resident artifact was (re)loaded: 0 for a
  /// model loaded before any reload, bumped when a hot reload swaps it.
  uint64_t generation = 0;
  /// Shape of the resident engine; 0 / empty when not resident.
  uint64_t dims = 0;
  uint64_t points = 0;          ///< Positive plus negative tree points.
  std::string weighting_type;   ///< WeightingTypeToString.
  std::string bounds;           ///< core::BoundKindToString.
};

/// See file comment.
class ModelRegistry {
 public:
  /// Opens a registry over `model_dir` (scanned for *.snap; empty
  /// string = no directory, models come from AddModelFile).
  /// Fails if a named directory cannot be scanned.
  static util::Result<std::unique_ptr<ModelRegistry>> Open(
      const std::string& model_dir, const RegistryOptions& options);

  /// Registers one explicit snapshot file (any extension) under `name`,
  /// replacing a scanned file of the same stem for good. The file is
  /// stat-ed now, mapped on first Acquire; a file that is not a snapshot
  /// fails that Acquire with an error naming its path.
  util::Status AddModelFile(const std::string& name,
                            const std::string& path) KARL_EXCLUDES(mu_);

  /// Resolves `name` ("" = default model) to a pinned handle, loading
  /// the model first if it is not resident. May evict colder models to
  /// satisfy the memory budget.
  util::Result<ModelHandle> Acquire(const std::string& name)
      KARL_EXCLUDES(mu_);

  /// Rescans the directory, adding new stems and dropping scanned
  /// models whose file is gone, then atomically swaps every resident
  /// model whose file changed (in-flight queries keep the old mapping).
  /// Each failed load logs a WARN `model_reload_failed` and keeps the
  /// old mapping serving; the first one is returned, and the other
  /// entries still refresh. Records its duration in the
  /// `karl_model_reload_us` histogram.
  util::Status Reload() KARL_EXCLUDES(mu_);

  /// Snapshot of every model's state (sorted by name).
  std::vector<ModelInfo> List() const KARL_EXCLUDES(mu_);

  /// The model an unnamed request resolves to ("" when none does).
  std::string default_model() const KARL_EXCLUDES(mu_);

  /// Sum of resident bytes over loaded models.
  uint64_t resident_bytes() const KARL_EXCLUDES(mu_);

  /// Total evictions since construction.
  uint64_t evictions() const KARL_EXCLUDES(mu_);

  /// Number of reloads that completed (SIGHUP/protocol-op driven).
  uint64_t reloads() const KARL_EXCLUDES(mu_);

  const RegistryOptions& options() const { return options_; }
  const std::string& model_dir() const { return model_dir_; }

 private:
  struct Entry {
    std::string path;
    bool from_scan = false;    // Discovered by directory scan.
    uint64_t file_bytes = 0;
    int64_t mtime_ns = 0;
    ModelHandle loaded;        // Null when not resident.
    uint64_t last_used_tick = 0;
    uint64_t queries = 0;
    uint64_t loads = 0;
    uint64_t evictions = 0;
    uint64_t coldstart_us = 0;
    uint64_t generation = 0;   // reloads_total_ at last LoadEntry.
  };

  explicit ModelRegistry(std::string model_dir, RegistryOptions options);

  /// Scans model_dir_ into (name → path/stat); no table mutation.
  util::Status ScanDir(std::map<std::string, Entry>* found) const;

  /// Resolves "" to the configured default, else to the only model of
  /// a single-model registry, else to "" (unresolved). Any other name
  /// resolves to itself.
  std::string ResolveLocked(const std::string& name) const
      KARL_REQUIRES(mu_);

  /// Maps and attaches entry's snapshot into a fresh LoadedModel.
  util::Result<ModelHandle> LoadEntry(const std::string& name, Entry* entry)
      KARL_REQUIRES(mu_);

  /// Reload()'s work under the lock. Moves every generation it replaces
  /// or drops into `released`, for the caller to free after mu_.
  util::Status ReloadLocked(std::vector<ModelHandle>* released)
      KARL_REQUIRES(mu_);

  /// Evicts LRU unpinned entries until the budget holds.
  void EnforceBudget() KARL_REQUIRES(mu_);

  uint64_t ResidentBytesLocked() const KARL_REQUIRES(mu_);
  void UpdateResidentGauge() KARL_REQUIRES(mu_);

  const std::string model_dir_;
  const RegistryOptions options_;
  const std::shared_ptr<FdReclaimer> reclaimer_;

  mutable util::Mutex mu_;
  std::map<std::string, Entry> models_ KARL_GUARDED_BY(mu_);
  uint64_t tick_ KARL_GUARDED_BY(mu_) = 0;
  uint64_t evictions_total_ KARL_GUARDED_BY(mu_) = 0;
  uint64_t reloads_total_ KARL_GUARDED_BY(mu_) = 0;
};

}  // namespace karl::registry

#endif  // KARL_REGISTRY_REGISTRY_H_
