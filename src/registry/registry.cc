#include "registry/registry.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <system_error>
#include <thread>
#include <utility>

#include "index/principal_frame.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"
#include "util/stopwatch.h"

namespace karl::registry {

// Closes file descriptors on a thread of its own. Closing the last
// descriptor of a snapshot that a rename replaced is when the kernel
// frees that file's page cache, ~8 ms for 11 MB; this keeps it off the
// thread that dropped the model. Owned by the registry and by every
// LoadedModel it made, so the last owner out closes whatever is still
// queued and joins.
class FdReclaimer {
 public:
  FdReclaimer() = default;
  ~FdReclaimer() {
    {
      util::MutexLock lock(&mu_);
      stopping_ = true;
    }
    wake_.Signal();
    thread_.join();
  }
  FdReclaimer(const FdReclaimer&) = delete;
  FdReclaimer& operator=(const FdReclaimer&) = delete;

  void Close(int fd) {
    if (fd < 0) return;
    {
      util::MutexLock lock(&mu_);
      queue_.push_back(fd);
    }
    wake_.Signal();
  }

 private:
  void Run() {
    std::vector<int> closing;
    mu_.Lock();
    while (true) {
      while (queue_.empty() && !stopping_) wake_.Wait(&mu_);
      if (queue_.empty()) break;  // Stopping, and nothing left to close.
      closing.swap(queue_);
      mu_.Unlock();
      for (const int fd : closing) ::close(fd);
      closing.clear();
      mu_.Lock();
    }
    mu_.Unlock();
  }

  util::Mutex mu_;
  util::CondVar wake_;
  std::vector<int> queue_ KARL_GUARDED_BY(mu_);
  bool stopping_ KARL_GUARDED_BY(mu_) = false;
  std::thread thread_{[this] { Run(); }};  // Last: uses the members above.
};

LoadedModel::~LoadedModel() {
  if (!snapshot_.has_value()) return;
  engine_.reset();  // Views the mapping.
  reclaimer_->Close(snapshot_->Unmap());
}

namespace {

namespace fs = std::filesystem;

// Model name of a scanned file: the stem ("home.snap" → "home").
std::string StemName(const fs::path& path) { return path.stem().string(); }

// Size and mtime of `path`, the pair a reload compares to tell that a
// file changed. Returns the error when the file cannot be stat-ed.
std::error_code StatFile(const fs::path& path, uint64_t* bytes,
                         int64_t* mtime_ns) {
  std::error_code ec;
  *bytes = static_cast<uint64_t>(fs::file_size(path, ec));
  if (ec) return ec;
  const auto t = fs::last_write_time(path, ec);
  if (ec) return ec;
  *mtime_ns = static_cast<int64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t.time_since_epoch())
          .count());
  return ec;
}

}  // namespace

ModelRegistry::ModelRegistry(std::string model_dir, RegistryOptions options)
    : model_dir_(std::move(model_dir)),
      options_(std::move(options)),
      reclaimer_(std::make_shared<FdReclaimer>()) {}

util::Result<std::unique_ptr<ModelRegistry>> ModelRegistry::Open(
    const std::string& model_dir, const RegistryOptions& options) {
  std::unique_ptr<ModelRegistry> registry(
      new ModelRegistry(model_dir, options));
  if (!model_dir.empty()) {
    std::map<std::string, Entry> found;
    KARL_RETURN_NOT_OK(registry->ScanDir(&found));
    util::MutexLock lock(&registry->mu_);
    registry->models_ = std::move(found);
  }
  return registry;
}

util::Status ModelRegistry::ScanDir(
    std::map<std::string, Entry>* found) const {
  std::error_code ec;
  fs::directory_iterator it(model_dir_, ec);
  if (ec) {
    return util::Status::IOError("cannot scan model dir " + model_dir_ +
                                 ": " + ec.message());
  }
  for (const auto& dirent : it) {
    if (!dirent.is_regular_file(ec)) continue;
    const fs::path& p = dirent.path();
    if (p.extension() != ".snap") continue;
    const std::string name = StemName(p);
    if (name.empty()) continue;
    Entry entry;
    entry.path = p.string();
    entry.from_scan = true;
    if (StatFile(p, &entry.file_bytes, &entry.mtime_ns)) continue;  // Gone.
    (*found)[name] = std::move(entry);
  }
  return util::Status::OK();
}

util::Status ModelRegistry::AddModelFile(const std::string& name,
                                         const std::string& path) {
  if (name.empty()) {
    return util::Status::InvalidArgument("model name must not be empty");
  }
  Entry entry;
  entry.path = path;
  if (const std::error_code ec =
          StatFile(path, &entry.file_bytes, &entry.mtime_ns)) {
    return util::Status::IOError("cannot stat model file " + path + ": " +
                                 ec.message());
  }
  util::MutexLock lock(&mu_);
  models_[name] = std::move(entry);
  return util::Status::OK();
}

std::string ModelRegistry::ResolveLocked(const std::string& name) const {
  if (!name.empty()) return name;
  if (!options_.default_model.empty()) return options_.default_model;
  if (models_.size() == 1) return models_.begin()->first;
  return "";
}

util::Result<ModelHandle> ModelRegistry::Acquire(const std::string& name) {
  util::MutexLock lock(&mu_);
  const std::string resolved = ResolveLocked(name);
  if (resolved.empty()) {
    return util::Status::InvalidArgument(
        "request names no model and the registry serves " +
        std::to_string(models_.size()) +
        " models with no default configured");
  }
  auto it = models_.find(resolved);
  if (it == models_.end()) {
    std::string known;
    for (const auto& [model_name, entry] : models_) {
      if (!known.empty()) known += ", ";
      known += model_name;
    }
    return util::Status::NotFound("unknown model '" + resolved +
                                  "' (known: " +
                                  (known.empty() ? "none" : known) + ")");
  }
  Entry& entry = it->second;
  entry.last_used_tick = ++tick_;
  ++entry.queries;
  if (entry.loaded != nullptr) return entry.loaded;

  auto handle = LoadEntry(resolved, &entry);
  if (!handle.ok()) return handle.status();
  entry.loaded = handle.value();
  EnforceBudget();
  UpdateResidentGauge();
  return std::move(handle).ValueOrDie();
}

util::Result<ModelHandle> ModelRegistry::LoadEntry(const std::string& name,
                                                   Entry* entry) {
  util::Stopwatch timer;
  std::shared_ptr<LoadedModel> loaded(new LoadedModel());
  LoadedModel* model = loaded.get();
  model->name_ = name;
  model->reclaimer_ = reclaimer_;
  auto snapshot = MappedSnapshot::Map(entry->path);
  if (!snapshot.ok()) return snapshot.status();
  model->snapshot_.emplace(std::move(snapshot).ValueOrDie());
  auto engine = AttachEngine(*model->snapshot_, options_.metrics, nullptr);
  if (!engine.ok()) return engine.status();
  model->engine_ = std::make_unique<Engine>(std::move(engine).ValueOrDie());
  model->resident_bytes_ = model->engine_->MemoryUsageBytes();
  model->coldstart_us_ =
      static_cast<uint64_t>(timer.ElapsedSeconds() * 1e6);

  ++entry->loads;
  entry->coldstart_us = model->coldstart_us_;
  entry->generation = reloads_total_;
  if (options_.metrics != nullptr) {
    const telemetry::LabelSet labels{{"model", name}};
    options_.metrics->GetCounter("karl_model_loads_total")->Increment();
    options_.metrics->GetCounter("karl_model_loads_total", labels)
        ->Increment();
    options_.metrics->GetRollingHistogram("karl_model_coldstart_us")
        ->Record(static_cast<double>(model->coldstart_us_));
    options_.metrics->GetRollingHistogram("karl_model_coldstart_us", labels)
        ->Record(static_cast<double>(model->coldstart_us_));
  }
  util::Log(options_.logger, util::LogLevel::kInfo, "model_load",
            {{"model", name},
             {"path", entry->path},
             {"coldstart_us", model->coldstart_us_},
             {"resident_bytes",
              static_cast<uint64_t>(model->resident_bytes_)}});
  return ModelHandle(std::move(loaded));
}

void ModelRegistry::EnforceBudget() {
  if (options_.memory_budget_bytes == 0) return;
  while (ResidentBytesLocked() > options_.memory_budget_bytes) {
    // LRU sweep over evictable entries: resident and not pinned —
    // use_count() == 1 means the registry holds the only reference, so
    // releasing it frees (or defers to the last in-flight handle, which
    // cannot exist when the count is 1 under this lock).
    auto victim = models_.end();
    for (auto it = models_.begin(); it != models_.end(); ++it) {
      Entry& entry = it->second;
      if (entry.loaded == nullptr) continue;
      if (entry.loaded.use_count() > 1) continue;  // Pinned by queries.
      if (victim == models_.end() ||
          entry.last_used_tick < victim->second.last_used_tick) {
        victim = it;
      }
    }
    if (victim == models_.end()) return;  // Everything pinned.
    Entry& entry = victim->second;
    entry.loaded.reset();  // The munmap happens here (count was 1).
    ++entry.evictions;
    ++evictions_total_;
    if (options_.metrics != nullptr) {
      options_.metrics->GetCounter("karl_model_evictions_total")
          ->Increment();
      options_.metrics
          ->GetCounter("karl_model_evictions_total",
                       telemetry::LabelSet{{"model", victim->first}})
          ->Increment();
    }
    util::Log(options_.logger, util::LogLevel::kInfo, "model_evict",
              {{"model", victim->first},
               {"resident_bytes", ResidentBytesLocked()}});
  }
}

util::Status ModelRegistry::Reload() {
  util::Stopwatch timer;
  util::Status status;
  {
    // Declared before the lock, so the generations this reload replaces
    // or drops unmap after mu_ is released.
    std::vector<ModelHandle> released;
    util::MutexLock lock(&mu_);
    status = ReloadLocked(&released);
  }
  if (options_.metrics != nullptr) {
    options_.metrics->GetRollingHistogram("karl_model_reload_us")
        ->Record(timer.ElapsedSeconds() * 1e6);
  }
  return status;
}

util::Status ModelRegistry::ReloadLocked(std::vector<ModelHandle>* released) {
  util::Status first_error = util::Status::OK();
  ++reloads_total_;

  std::map<std::string, Entry> found;
  if (!model_dir_.empty()) {
    util::Status scan = ScanDir(&found);
    if (!scan.ok()) return scan;
  }

  // Drop scanned entries whose file disappeared; in-flight queries keep
  // their handles, the name just stops resolving.
  for (auto it = models_.begin(); it != models_.end();) {
    if (it->second.from_scan && found.find(it->first) == found.end()) {
      util::Log(options_.logger, util::LogLevel::kInfo, "model_gone",
                {{"model", it->first}});
      released->push_back(std::move(it->second.loaded));
      it = models_.erase(it);
    } else {
      ++it;
    }
  }

  // Add new stems. A name already registered, scanned or explicit,
  // keeps its own file.
  for (auto& [name, fresh] : found) {
    if (models_.contains(name)) continue;
    util::Log(options_.logger, util::LogLevel::kInfo, "model_found",
              {{"model", name}, {"path", fresh.path}});
    models_[name] = std::move(fresh);
  }

  // Refresh every entry from a stat of its own path, and swap resident
  // ones whose file changed.
  for (auto& [name, entry] : models_) {
    uint64_t bytes = 0;
    int64_t mtime_ns = 0;
    if (StatFile(entry.path, &bytes, &mtime_ns)) continue;  // Keep serving.
    if (bytes == entry.file_bytes && mtime_ns == entry.mtime_ns) continue;
    entry.file_bytes = bytes;
    entry.mtime_ns = mtime_ns;
    if (entry.loaded == nullptr) continue;  // Next Acquire loads fresh.
    // RCU swap: load the new artifact, then replace the handle. Queries
    // holding the old handle finish on the old mapping; its memory is
    // released when the last of them drops it.
    auto handle = LoadEntry(name, &entry);
    if (!handle.ok()) {
      util::Log(options_.logger, util::LogLevel::kWarn,
                "model_reload_failed",
                {{"model", name},
                 {"error", handle.status().message()}});
      if (first_error.ok()) first_error = handle.status();
      continue;  // Keep serving the old version.
    }
    released->push_back(
        std::exchange(entry.loaded, std::move(handle).ValueOrDie()));
    util::Log(options_.logger, util::LogLevel::kInfo, "model_reload",
              {{"model", name}, {"path", entry.path}});
  }

  EnforceBudget();
  UpdateResidentGauge();
  return first_error;
}

std::vector<ModelInfo> ModelRegistry::List() const {
  util::MutexLock lock(&mu_);
  std::vector<ModelInfo> out;
  out.reserve(models_.size());
  for (const auto& [name, entry] : models_) {
    ModelInfo info;
    info.name = name;
    info.path = entry.path;
    info.resident = entry.loaded != nullptr;
    info.file_bytes = entry.file_bytes;
    info.resident_bytes =
        entry.loaded != nullptr ? entry.loaded->resident_bytes() : 0;
    info.coldstart_us = entry.coldstart_us;
    info.queries = entry.queries;
    info.loads = entry.loads;
    info.evictions = entry.evictions;
    info.generation = entry.generation;
    if (entry.loaded != nullptr) {
      const Engine& engine = entry.loaded->engine();
      info.dims = engine.plus_tree().points().dims();
      info.points = engine.plus_tree().points().rows();
      if (engine.minus_tree() != nullptr) {
        info.points += engine.minus_tree()->points().rows();
      }
      info.weighting_type = WeightingTypeToString(engine.weighting_type());
      info.bounds = core::BoundKindToString(engine.options().bounds);
      info.frame = index::FrameName(engine.plus_tree());
      info.frame_extent_ratio = engine.plus_tree().frame_extent_ratio();
    }
    out.push_back(std::move(info));
  }
  return out;
}

std::string ModelRegistry::default_model() const {
  util::MutexLock lock(&mu_);
  return ResolveLocked("");
}

uint64_t ModelRegistry::resident_bytes() const {
  util::MutexLock lock(&mu_);
  return ResidentBytesLocked();
}

uint64_t ModelRegistry::evictions() const {
  util::MutexLock lock(&mu_);
  return evictions_total_;
}

uint64_t ModelRegistry::reloads() const {
  util::MutexLock lock(&mu_);
  return reloads_total_;
}

uint64_t ModelRegistry::ResidentBytesLocked() const {
  uint64_t total = 0;
  for (const auto& [name, entry] : models_) {
    if (entry.loaded != nullptr) total += entry.loaded->resident_bytes();
  }
  return total;
}

void ModelRegistry::UpdateResidentGauge() {
  if (options_.metrics == nullptr) return;
  options_.metrics->GetGauge("karl_model_resident_bytes")
      ->Set(static_cast<double>(ResidentBytesLocked()));
  // Per-model residency: evicted/unloaded models report 0 rather than
  // disappearing, so scrapers see the release.
  for (const auto& [name, entry] : models_) {
    const double bytes =
        entry.loaded != nullptr
            ? static_cast<double>(entry.loaded->resident_bytes())
            : 0.0;
    options_.metrics
        ->GetGauge("karl_model_resident_bytes",
                   telemetry::LabelSet{{"model", name}})
        ->Set(bytes);
  }
}

}  // namespace karl::registry
