// Registry cold-start harness: measures how fast a model becomes
// servable from disk via the mmap snapshot path (MappedSnapshot::Map +
// AttachEngine, which validates and points at the mapped sections) at
// three model sizes. The snapshot is the only persisted engine format, so
// this is the whole cost a registry pays on first Acquire or hot reload.
//
// Records gauges (dumped to the karl-bench-v1 JSON via
// KARL_BENCH_JSON_OUT, committed as BENCH_registry.json at the repo
// root):
//   karl_bench_registry_mmap_coldstart_us_n<N>     Map+AttachEngine
//   karl_bench_registry_snapshot_bytes_n<N>        .snap file size
//
// The attached engine is checked against the builder's exact aggregate
// before timing.

#include <cstdint>
#include <cstdio>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.h"
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

  karl::bench::PrintTableHeader({"points", "mmap ms", "snap MiB"});
  for (const size_t rows : {20000, 80000, 320000}) {
    karl::util::Rng rng(0x6b61726cull + rows);
    const karl::data::Matrix points =
        karl::data::SampleClustered(rows, 8, 5, 0.08, rng);
    const std::vector<double> weights(rows, 1.0);  // Type I.
    EngineOptions options;
    options.kernel = karl::core::KernelParams::Gaussian(3.0 / 8.0);
    options.leaf_capacity = 32;
    auto built = Engine::Build(points, weights, options);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    const std::string snap = (dir / (std::to_string(rows) + ".snap")).string();
    if (auto st = karl::registry::WriteSnapshot(snap, built.value());
        !st.ok()) {
      std::fprintf(stderr, "snapshot failed: %s\n", st.ToString().c_str());
      return 1;
    }

    // Agreement check: the attached engine must reproduce the builder's
    // exact aggregate before its timing means anything.
    std::vector<double> q(points.Row(rows / 2).begin(),
                          points.Row(rows / 2).end());
    const double expected = built.value().Exact(q);
    {
      auto mapped = karl::registry::MappedSnapshot::Map(snap);
      if (!mapped.ok()) {
        std::fprintf(stderr, "map failed for n=%zu\n", rows);
        return 1;
      }
      auto attached =
          karl::registry::AttachEngine(mapped.value(), nullptr, nullptr);
      if (!attached.ok() || attached.value().Exact(q) != expected) {
        std::fprintf(stderr, "attached engine disagrees for n=%zu\n", rows);
        return 1;
      }
    }

    const int repeats = rows >= 320000 ? 3 : 5;
    const double mmap_s = BestSeconds(
        [&] {
          auto mapped = karl::registry::MappedSnapshot::Map(snap);
          auto engine =
              karl::registry::AttachEngine(mapped.value(), nullptr, nullptr);
          g_sink = engine.value().Exact(q);
        },
        repeats);

    const double snap_bytes = static_cast<double>(fs::file_size(snap));
    const std::string suffix = "_n" + std::to_string(rows);
    karl::bench::RecordBenchMetric("registry_mmap_coldstart_us" + suffix,
                                   mmap_s * 1e6);
    karl::bench::RecordBenchMetric("registry_snapshot_bytes" + suffix,
                                   snap_bytes);
    karl::bench::PrintTableRow({std::to_string(rows), Fmt(mmap_s * 1e3),
                                Fmt(snap_bytes / (1024.0 * 1024.0))});
  }

  fs::remove_all(dir, ec);
  return 0;
}
