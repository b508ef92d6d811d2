// Shared infrastructure for the paper-reproduction benchmarks: workload
// construction per weighting type (Table VI), method runners matching the
// paper's comparison columns (SCAN / LIBSVM / Scikit / SOTA_best /
// KARL_auto), and table printing.
//
// Environment knobs:
//   KARL_BENCH_SCALE        multiplies every dataset cardinality (default 1.0)
//   KARL_BENCH_QUERIES      query-set size per workload (default 150)
//   KARL_BENCH_THREADS      worker-thread count for batch runners
//                           (default 1 = serial; tools also accept
//                           --threads=N which takes precedence)
//   KARL_BENCH_JSON_OUT     when set, the process writes a
//                           perf-trajectory document (schema
//                           "karl-bench-v1") to this path at exit:
//                           {schema, bench, version, git_sha,
//                           build_type, date (UTC ISO-8601), host,
//                           scale, queries, threads, metrics:{every
//                           karl_bench_* gauge}}. One such file per
//                           run, committed over time (BENCH_*.json at
//                           the repo root), is the throughput history
//                           of this codebase.

#ifndef KARL_BENCH_BENCH_COMMON_H_
#define KARL_BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include "core/karl.h"
#include "core/tuning.h"
#include "data/synthetic.h"

namespace karl::bench {

/// One benchmark workload: dataset + weights + kernel + query set +
/// threshold, ready for any method to run.
struct Workload {
  std::string dataset;
  data::Matrix points;
  std::vector<double> weights;
  core::KernelParams kernel;
  data::Matrix queries;
  double tau = 0.0;    ///< Threshold (μ of F over a query sample).
  double mu = 0.0;     ///< Mean of F over the probe sample.
  double sigma = 0.0;  ///< Std-dev of F over the probe sample.
  int weighting_type = 1;
};

/// Dataset scale multiplier from KARL_BENCH_SCALE (default 1.0).
double BenchScale();

/// Query count from KARL_BENCH_QUERIES (default 150).
size_t BenchQueries();

/// Batch worker-thread count from KARL_BENCH_THREADS (default 1).
size_t BenchThreads();

/// Builds the Type-I (KDE) workload for a registry dataset: uniform
/// weights 1/n, Scott's-rule γ, queries sampled from the data,
/// τ = μ = mean F over the probe sample.
Workload MakeTypeIWorkload(const std::string& name, size_t num_queries);

/// Type-II workload: synthetic 1-class-SVM-like positive coefficients
/// over the support-vector-scale dataset, γ = 1/d, τ = μ.
Workload MakeTypeIIWorkload(const std::string& name, size_t num_queries);

/// Type-III workload: signed 2-class-SVM-like coefficients, γ = 1/d,
/// τ = μ.
Workload MakeTypeIIIWorkload(const std::string& name, size_t num_queries);

/// Polynomial-kernel variant (degree 3, LIBSVM default; data re-scaled to
/// [−1,1]^d as in §V-F). weighting_type must be 2 or 3.
Workload MakePolynomialWorkload(const std::string& name, int weighting_type,
                                size_t num_queries);

/// SCAN baseline: exact sequential aggregation per query.
double MeasureScanThroughput(const Workload& w, const core::QuerySpec& spec);

/// LIBSVM-style baseline: sequential decision-function evaluation
/// (same O(nd) scan through a separate code path, mirroring the paper's
/// near-identical SCAN vs LIBSVM columns on dense data).
double MeasureLibsvmThroughput(const Workload& w,
                               const core::QuerySpec& spec);

/// Runs the query set through an engine built with `options`.
double MeasureEngineThroughput(const Workload& w, const core::QuerySpec& spec,
                               const EngineOptions& options);

/// Runs the query set through Engine::TkaqBatch / EkaqBatch fanned over
/// `threads` pool workers (1 = serial batch path, no pool). Records
/// gauge "karl_bench_batch_qps_<dataset>_threads_<N>". Results are
/// bit-identical to MeasureEngineThroughput's serial loop, so the two
/// are directly comparable.
double MeasureBatchThroughput(const Workload& w, const core::QuerySpec& spec,
                              const EngineOptions& options, size_t threads);

/// Best throughput over the paper's index grid for the given bound kind —
/// the SOTA_best / KARL_best columns. Measures each config on the full
/// query set.
double MeasureBestOverGrid(const Workload& w, const core::QuerySpec& spec,
                           core::BoundKind bounds);

/// KARL_auto: offline-tunes on a sampled query subset (§III-C), then
/// measures the recommended config on the full query set.
double MeasureKarlAuto(const Workload& w, const core::QuerySpec& spec);

/// Offline-tunes once on a query sample and returns the recommended
/// config for the given bound kind. Sweep benchmarks tune per dataset
/// (not per sweep point) and reuse the config, keeping runs tractable.
core::IndexConfig TuneConfigOnce(const Workload& w,
                                 const core::QuerySpec& spec,
                                 core::BoundKind bounds);

/// Measures a workload with a fixed (kind, leaf capacity, bounds) choice.
double MeasureWithConfig(const Workload& w, const core::QuerySpec& spec,
                         core::BoundKind bounds,
                         const core::IndexConfig& config);

/// Row printing: fixed-width columns, paper-style.
void PrintTableHeader(const std::vector<std::string>& columns);
void PrintTableRow(const std::vector<std::string>& cells);

/// Formats a throughput like the paper ("36.1", "20668").
std::string FormatQps(double qps);

/// The base EngineOptions every method shares (kernel filled per
/// workload).
EngineOptions DefaultOptions(const Workload& w);

/// Records a benchmark result as gauge "karl_bench_<name>" (characters
/// outside [A-Za-z0-9_] are mapped to '_') in the global telemetry
/// registry. When KARL_BENCH_JSON_OUT is set, the first call arms an
/// atexit hook that writes every karl_bench_* gauge to that path, so
/// bench binaries emit a machine-readable sidecar without any
/// per-binary plumbing. The Measure* runners call this automatically.
void RecordBenchMetric(const std::string& name, double value);

}  // namespace karl::bench

#endif  // KARL_BENCH_BENCH_COMMON_H_
