// Registry cold-start harness: measures how fast a model becomes
// servable from disk via the mmap snapshot path (MappedSnapshot::Map +
// AttachEngine, which validates and points at the mapped sections) versus
// the legacy path (LoadEngineModel + Engine::Build, which re-runs full
// index construction and bound precomputation), at three model sizes.
//
// Records gauges (dumped to the karl-bench-v1 JSON via
// KARL_BENCH_JSON_OUT, committed as BENCH_registry.json at the repo
// root):
//   karl_bench_registry_legacy_coldstart_us_n<N>   LoadEngineModel+Build
//   karl_bench_registry_mmap_coldstart_us_n<N>     Map+AttachEngine
//   karl_bench_registry_coldstart_speedup_n<N>     legacy / mmap
//   karl_bench_registry_snapshot_bytes_n<N>        .snap file size
//   karl_bench_registry_model_bytes_n<N>           legacy .bin file size
//
// The acceptance bar for the registry PR — and the CI bench-smoke
// assertion — is speedup >= 5.0 at the largest size: attach skips tree
// construction and node-aggregate precomputation entirely, so the gap
// widens with n. Both paths are checked for agreeing exact aggregates
// before timing.

#include <cstdint>
#include <cstdio>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/engine_io.h"
#include "core/kernel.h"
#include "registry/snapshot.h"
#include "util/rng.h"

namespace {

namespace fs = std::filesystem;
using karl::Engine;
using karl::EngineOptions;

volatile double g_sink = 0.0;

// Best wall-clock of `repeats` runs of f() — same noise filter as the
// SIMD micro harness. Cold-start here means "process already warm, file
// in page cache": the steady-state cost a registry pays on first Acquire
// or hot reload, not a cold-page-cache boot.
template <typename F>
double BestSeconds(F&& f, int repeats) {
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

karl::core::EngineModel MakeModel(size_t rows) {
  karl::util::Rng rng(0x6b61726cull + rows);
  karl::core::EngineModel model;
  model.points = karl::data::SampleClustered(rows, 8, 5, 0.08, rng);
  model.weights.assign(rows, 1.0);  // Type I.
  model.options.kernel =
      karl::core::KernelParams::Gaussian(3.0 / 8.0);
  model.options.leaf_capacity = 32;
  return model;
}

std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

}  // namespace

int main() {
  const fs::path dir = fs::temp_directory_path() / "karl_bench_registry";
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);

  karl::bench::PrintTableHeader({"points", "legacy ms", "mmap ms", "speedup",
                                 "snap MiB"});
  for (const size_t rows : {20000, 80000, 320000}) {
    const karl::core::EngineModel model = MakeModel(rows);
    auto built = Engine::Build(model.points, model.weights, model.options);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    const std::string bin = (dir / (std::to_string(rows) + ".bin")).string();
    const std::string snap = (dir / (std::to_string(rows) + ".snap")).string();
    if (auto st = karl::core::SaveEngineModel(bin, model); !st.ok()) {
      std::fprintf(stderr, "save failed: %s\n", st.ToString().c_str());
      return 1;
    }
    if (auto st = karl::registry::WriteSnapshot(snap, built.value());
        !st.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n", st.ToString().c_str());
      return 1;
    }

    // Agreement check: both cold-start paths must reproduce the builder's
    // exact aggregate before their timings mean anything.
    std::vector<double> q(model.points.Row(rows / 2).begin(),
                          model.points.Row(rows / 2).end());
    const double expected = built.value().Exact(q);
    {
      auto legacy = karl::core::LoadEngine(bin);
      auto mapped = karl::registry::MappedSnapshot::Map(snap);
      if (!legacy.ok() || !mapped.ok()) {
        std::fprintf(stderr, "reload failed for n=%zu\n", rows);
        return 1;
      }
      auto attached =
          karl::registry::AttachEngine(mapped.value(), nullptr, nullptr);
      if (!attached.ok() || legacy.value().Exact(q) != expected ||
          attached.value().Exact(q) != expected) {
        std::fprintf(stderr, "cold-start paths disagree for n=%zu\n", rows);
        return 1;
      }
    }

    const int repeats = rows >= 320000 ? 3 : 5;
    const double legacy_s = BestSeconds(
        [&] {
          auto loaded = karl::core::LoadEngineModel(bin);
          auto engine = Engine::Build(loaded.value().points,
                                      loaded.value().weights,
                                      loaded.value().options);
          g_sink = engine.value().Exact(q);
        },
        repeats);
    const double mmap_s = BestSeconds(
        [&] {
          auto mapped = karl::registry::MappedSnapshot::Map(snap);
          auto engine =
              karl::registry::AttachEngine(mapped.value(), nullptr, nullptr);
          g_sink = engine.value().Exact(q);
        },
        repeats);

    const double speedup = legacy_s / mmap_s;
    const double snap_bytes = static_cast<double>(fs::file_size(snap));
    const std::string suffix = "_n" + std::to_string(rows);
    karl::bench::RecordBenchMetric("registry_legacy_coldstart_us" + suffix,
                                   legacy_s * 1e6);
    karl::bench::RecordBenchMetric("registry_mmap_coldstart_us" + suffix,
                                   mmap_s * 1e6);
    karl::bench::RecordBenchMetric("registry_coldstart_speedup" + suffix,
                                   speedup);
    karl::bench::RecordBenchMetric("registry_snapshot_bytes" + suffix,
                                   snap_bytes);
    karl::bench::RecordBenchMetric(
        "registry_model_bytes" + suffix,
        static_cast<double>(fs::file_size(bin)));
    karl::bench::PrintTableRow({std::to_string(rows), Fmt(legacy_s * 1e3),
                                Fmt(mmap_s * 1e3), Fmt(speedup),
                                Fmt(snap_bytes / (1024.0 * 1024.0))});
  }

  fs::remove_all(dir, ec);
  return 0;
}
