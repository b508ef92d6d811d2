// Reproduces paper Table VII: throughput (queries/second) of SCAN,
// LIBSVM, Scikit_best, SOTA_best and KARL_auto for the four query types
// (I-ε, I-τ, II-τ, III-τ) across the benchmark datasets.
//
// Column mapping (see DESIGN.md §5):
//   SCAN        — exact sequential aggregation
//   LIBSVM      — sequential decision-function evaluation (τ queries only)
//   Scikit_best — the SOTA algorithm+bounds over the best index
//                 (Scikit-learn's KDE implements [Gray&Moore]; only the
//                 I-ε row, as in the paper; its τ path wraps LibSVM)
//   SOTA_best   — SOTA bounds, best index/leaf-capacity over the grid
//   KARL_auto   — KARL bounds, automatically tuned index
//
// The paper's datasets are simulated (scaled) — see DESIGN.md; compare
// method ORDER and speedup factors, not absolute numbers.
//
// A trailing "Batch scaling" section measures the parallel batch engine
// (Engine::TkaqBatch over a worker pool) on the Type-I Gaussian "home"
// workload at 1 thread vs --threads=N (or KARL_BENCH_THREADS; default
// 1 skips the section) and reports the speedup.

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "bench_common.h"
#include "registry/registry.h"
#include "registry/snapshot.h"
#include "server/client.h"
#include "server/server.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"
#include "util/flags.h"
#include "util/stopwatch.h"

namespace {

using karl::bench::FormatQps;
using karl::bench::Workload;
using karl::core::BoundKind;
using karl::core::QuerySpec;

void RunRow(const std::string& type_label, const Workload& w,
            const QuerySpec& spec, bool libsvm_applicable,
            bool scikit_applicable) {
  const double scan = karl::bench::MeasureScanThroughput(w, spec);
  const double libsvm =
      libsvm_applicable ? karl::bench::MeasureLibsvmThroughput(w, spec) : 0.0;
  const double scikit =
      scikit_applicable
          ? karl::bench::MeasureBestOverGrid(w, spec, BoundKind::kSota)
          : 0.0;
  const double sota =
      karl::bench::MeasureBestOverGrid(w, spec, BoundKind::kSota);
  const double karl_auto = karl::bench::MeasureKarlAuto(w, spec);

  karl::bench::PrintTableRow(
      {type_label, w.dataset, FormatQps(scan),
       libsvm_applicable ? FormatQps(libsvm) : "n/a",
       scikit_applicable ? FormatQps(scikit) : "n/a", FormatQps(sota),
       FormatQps(karl_auto),
       FormatQps(sota > 0 ? karl_auto / sota : 0.0) + "x"});
}

}  // namespace

int main(int argc, char** argv) {
  auto parsed = karl::util::ParsedArgs::Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n", parsed.status().ToString().c_str());
    return 1;
  }
  auto threads_flag = parsed.value().GetInt(
      "threads", static_cast<int64_t>(karl::bench::BenchThreads()));
  if (!threads_flag.ok()) {
    std::fprintf(stderr, "%s\n", threads_flag.status().ToString().c_str());
    return 1;
  }
  const size_t batch_threads =
      static_cast<size_t>(std::max<int64_t>(1, threads_flag.value()));

  const size_t nq = karl::bench::BenchQueries();
  std::printf("Table VII: query throughput (queries/s), %zu queries per "
              "cell, scale %.2f\n\n",
              nq, karl::bench::BenchScale());
  karl::bench::PrintTableHeader({"type", "dataset", "SCAN", "LIBSVM",
                                 "Scikit_best", "SOTA_best", "KARL_auto",
                                 "KARL/SOTA"});

  // Type I-ε (ε = 0.2): kernel density, approximate queries.
  for (const char* name : {"miniboone", "home", "susy"}) {
    const Workload w = karl::bench::MakeTypeIWorkload(name, nq);
    QuerySpec spec;
    spec.kind = QuerySpec::Kind::kApproximate;
    spec.eps = 0.2;
    RunRow("I-eps", w, spec, /*libsvm=*/false, /*scikit=*/true);
  }

  // Type I-τ (τ = μ).
  for (const char* name : {"miniboone", "home", "susy"}) {
    const Workload w = karl::bench::MakeTypeIWorkload(name, nq);
    QuerySpec spec;
    spec.kind = QuerySpec::Kind::kThreshold;
    spec.tau = w.tau;
    RunRow("I-tau", w, spec, /*libsvm=*/true, /*scikit=*/false);
  }

  // Type II-τ: 1-class SVM workloads.
  for (const char* name : {"nsl-kdd", "kdd99", "covtype"}) {
    const Workload w = karl::bench::MakeTypeIIWorkload(name, nq);
    QuerySpec spec;
    spec.kind = QuerySpec::Kind::kThreshold;
    spec.tau = w.tau;
    RunRow("II-tau", w, spec, /*libsvm=*/true, /*scikit=*/false);
  }

  // Type III-τ: 2-class SVM workloads.
  for (const char* name : {"ijcnn1", "a9a", "covtype-b"}) {
    const Workload w = karl::bench::MakeTypeIIIWorkload(name, nq);
    QuerySpec spec;
    spec.kind = QuerySpec::Kind::kThreshold;
    spec.tau = w.tau;
    RunRow("III-tau", w, spec, /*libsvm=*/true, /*scikit=*/false);
  }

  // Batch scaling: the parallel batch engine on the Type-I Gaussian
  // threshold workload, serial batch vs an N-worker pool. Identical
  // results by construction (see core/batch.h), so the ratio is pure
  // scheduling/throughput.
  if (batch_threads > 1) {
    std::printf("\nBatch scaling (TkaqBatch, Type I Gaussian, \"home\")\n\n");
    karl::bench::PrintTableHeader(
        {"dataset", "threads=1", "threads=N", "N", "speedup"});
    const Workload w = karl::bench::MakeTypeIWorkload("home", nq);
    QuerySpec spec;
    spec.kind = QuerySpec::Kind::kThreshold;
    spec.tau = w.tau;
    const karl::EngineOptions options = karl::bench::DefaultOptions(w);
    const double serial =
        karl::bench::MeasureBatchThroughput(w, spec, options, 1);
    const double parallel =
        karl::bench::MeasureBatchThroughput(w, spec, options, batch_threads);
    const double speedup = serial > 0.0 ? parallel / serial : 0.0;
    karl::bench::RecordBenchMetric("batch_speedup_home", speedup);
    karl::bench::PrintTableRow({w.dataset, FormatQps(serial),
                                FormatQps(parallel),
                                std::to_string(batch_threads),
                                FormatQps(speedup) + "x"});
  }

  // Serving stage breakdown: the Type-I Gaussian "home" workload pushed
  // through the full network stack (epoll loop -> coalescer -> pool) on
  // loopback, reported per pipeline stage from the server's stage
  // histograms. Each quantile lands in the KARL_BENCH_JSON_OUT
  // sidecar, so CI can track where serving latency goes, not just how
  // much there is.
  {
    std::printf("\nServing stage breakdown (single I-eps queries over "
                "loopback, \"home\")\n\n");
    const Workload w = karl::bench::MakeTypeIWorkload("home", nq);
    auto engine = karl::Engine::Build(w.points, w.weights,
                                      karl::bench::DefaultOptions(w));
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return 1;
    }
    // Served the way karl_server serves a model: as a mapped snapshot.
    const std::string snapshot =
        (std::filesystem::temp_directory_path() / "karl_bench_table7.snap")
            .string();
    if (auto st = karl::registry::WriteSnapshot(snapshot, engine.value());
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    karl::telemetry::Registry registry;
    karl::registry::RegistryOptions registry_options;
    registry_options.default_model = "default";
    registry_options.metrics = &registry;
    auto models = karl::registry::ModelRegistry::Open("", registry_options);
    if (!models.ok()) {
      std::fprintf(stderr, "%s\n", models.status().ToString().c_str());
      return 1;
    }
    if (auto st = models.value()->AddModelFile("default", snapshot);
        !st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    karl::server::ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = std::max<size_t>(batch_threads, 2);
    server_options.metrics = &registry;
    auto server = karl::server::Server::StartWithRegistry(
        models.value().get(), server_options);
    if (!server.ok()) {
      std::fprintf(stderr, "%s\n", server.status().ToString().c_str());
      return 1;
    }
    auto client =
        karl::server::Client::Connect("127.0.0.1", server.value()->port());
    if (!client.ok()) {
      std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
      return 1;
    }
    karl::util::Stopwatch watch;
    size_t answered = 0;
    for (size_t i = 0; i < w.queries.rows(); ++i) {
      if (client.value().Ekaq(w.queries.Row(i), 0.2).ok()) ++answered;
    }
    const double elapsed = watch.ElapsedSeconds();
    const double qps =
        elapsed > 0.0 ? static_cast<double>(answered) / elapsed : 0.0;
    karl::bench::RecordBenchMetric("serving_qps_home", qps);
    std::printf("end-to-end: %s queries/s (%zu queries)\n\n",
                FormatQps(qps).c_str(), answered);

    karl::bench::PrintTableHeader({"stage", "p50_us", "p95_us"});
    for (const char* stage :
         {"read", "parse", "queue_wait", "coalesce_wait", "eval",
          "serialize", "write", "total"}) {
      const auto h =
          registry
              .GetRollingHistogram(std::string("karl_server_") + stage +
                                   "_us")
              ->CumulativeSnapshot();
      const double p50 = h.Quantile(0.5);
      const double p95 = h.Quantile(0.95);
      karl::bench::RecordBenchMetric(
          std::string("serving_") + stage + "_p50_us", p50);
      karl::bench::RecordBenchMetric(
          std::string("serving_") + stage + "_p95_us", p95);
      char p50_text[32];
      char p95_text[32];
      std::snprintf(p50_text, sizeof(p50_text), "%.1f", p50);
      std::snprintf(p95_text, sizeof(p95_text), "%.1f", p95);
      karl::bench::PrintTableRow({stage, p50_text, p95_text});
    }
    server.value()->Shutdown();
    server.value()->Wait();
    std::error_code ec;
    std::filesystem::remove(snapshot, ec);
  }

  return 0;
}
