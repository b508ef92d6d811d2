#include "bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>

#include "core/evaluator.h"
#include "data/normalize.h"
#include "ml/kde.h"
#include "server/json.h"
#include "telemetry/metrics.h"
#include "util/build_info.h"
#include "util/math_util.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace karl::bench {

namespace {

// FNV-1a of the dataset name: deterministic per-workload RNG seeds.
uint64_t NameSeed(const std::string& name, uint64_t salt) {
  uint64_t seed = 0xcbf29ce484222325ULL ^ salt;
  for (const char ch : name) {
    seed = (seed ^ static_cast<uint64_t>(ch)) * 0x100000001b3ULL;
  }
  return seed;
}

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::atof(value);
}

// Generates the dataset (scaled), samples queries from it, and fills the
// workload skeleton.
Workload MakeBase(const std::string& name, size_t num_queries) {
  auto spec_result = data::FindDataset(name);
  if (!spec_result.ok()) {
    std::fprintf(stderr, "unknown dataset '%s'\n", name.c_str());
    std::abort();
  }
  data::DatasetSpec spec = spec_result.value();
  spec.n = std::max<size_t>(
      1000, static_cast<size_t>(static_cast<double>(spec.n) * BenchScale()));

  Workload w;
  w.dataset = name;
  w.points = data::MakeUciLike(spec);
  w.weighting_type = spec.weighting_type;

  // Queries: sampled from the dataset, as in §V-A2.
  util::Rng rng(NameSeed(name, 0x51u));
  const auto rows = rng.SampleWithoutReplacement(
      w.points.rows(), std::min(num_queries, w.points.rows()));
  w.queries = w.points.SelectRows(rows);
  return w;
}

// Computes μ and σ of F over a probe subset of the queries by exact scan
// and sets τ = μ (the paper's default threshold).
void FillThresholdStats(Workload* w, size_t probe_count) {
  const size_t probes = std::min(probe_count, w->queries.rows());
  std::vector<double> values;
  values.reserve(probes);
  for (size_t i = 0; i < probes; ++i) {
    values.push_back(core::ExactAggregate(w->points, w->weights, w->kernel,
                                          w->queries.Row(i)));
  }
  w->mu = util::Mean(values);
  w->sigma = util::StdDev(values);
  w->tau = w->mu;
}

}  // namespace

double BenchScale() {
  static const double kScale = EnvDouble("KARL_BENCH_SCALE", 1.0);
  return kScale;
}

size_t BenchQueries() {
  static const size_t kQueries = static_cast<size_t>(
      std::max(1.0, EnvDouble("KARL_BENCH_QUERIES", 150.0)));
  return kQueries;
}

size_t BenchThreads() {
  static const size_t kThreads = static_cast<size_t>(
      std::max(1.0, EnvDouble("KARL_BENCH_THREADS", 1.0)));
  return kThreads;
}

Workload MakeTypeIWorkload(const std::string& name, size_t num_queries) {
  Workload w = MakeBase(name, num_queries);
  w.weighting_type = 1;
  w.weights.assign(w.points.rows(), 1.0 / static_cast<double>(w.points.rows()));
  w.kernel = core::KernelParams::Gaussian(
      ml::BandwidthToGamma(ml::ScottBandwidth(w.points)));
  FillThresholdStats(&w, 100);
  return w;
}

Workload MakeTypeIIWorkload(const std::string& name, size_t num_queries) {
  Workload w = MakeBase(name, num_queries);
  w.weighting_type = 2;
  // 1-class-SVM-like coefficients: most α at the box bound, a free tail —
  // the shape LIBSVM training produces. Normalised to Σα = 1.
  util::Rng rng(NameSeed(name, 2));
  w.weights.resize(w.points.rows());
  double total = 0.0;
  for (auto& alpha : w.weights) {
    alpha = rng.Uniform() < 0.7 ? 1.0 : rng.Uniform(0.05, 1.0);
    total += alpha;
  }
  for (auto& alpha : w.weights) alpha /= total;
  w.kernel = core::KernelParams::Gaussian(
      1.0 / static_cast<double>(w.points.cols()));  // LIBSVM default 1/d.
  FillThresholdStats(&w, 100);
  return w;
}

Workload MakeTypeIIIWorkload(const std::string& name, size_t num_queries) {
  Workload w = MakeBase(name, num_queries);
  w.weighting_type = 3;
  // 2-class coefficients α_i y_i: sign follows which side of a random
  // hyperplane the support vector falls on (opposing classes cluster on
  // opposite sides of the boundary), magnitude as in Type II.
  util::Rng rng(NameSeed(name, 3));
  const size_t d = w.points.cols();
  std::vector<double> normal(d);
  for (auto& v : normal) v = rng.Gaussian();
  double offset = 0.0;
  for (size_t j = 0; j < d; ++j) offset += normal[j] * 0.5;

  w.weights.resize(w.points.rows());
  for (size_t i = 0; i < w.points.rows(); ++i) {
    const double side = util::Dot(w.points.Row(i), normal) - offset;
    const double alpha =
        rng.Uniform() < 0.7 ? 1.0 : rng.Uniform(0.05, 1.0);
    w.weights[i] = side >= 0.0 ? alpha : -alpha;
  }
  w.kernel = core::KernelParams::Gaussian(1.0 / static_cast<double>(d));
  FillThresholdStats(&w, 100);
  return w;
}

Workload MakePolynomialWorkload(const std::string& name, int weighting_type,
                                size_t num_queries) {
  Workload w = weighting_type == 2 ? MakeTypeIIWorkload(name, num_queries)
                                   : MakeTypeIIIWorkload(name, num_queries);
  // §V-F: polynomial kernel, degree 3, data normalised to [−1,1]^d.
  data::NormalizationParams params =
      data::FitMinMax(w.points, -1.0, 1.0);
  data::ApplyNormalization(params, &w.points);
  data::ApplyNormalization(params, &w.queries);
  w.kernel = core::KernelParams::Polynomial(
      1.0 / static_cast<double>(w.points.cols()), 0.0, 3);
  FillThresholdStats(&w, 100);
  return w;
}

namespace {

// Renders and writes the karl-bench-v1 perf-trajectory document (see
// the KARL_BENCH_JSON_OUT doc in bench_common.h). Runs at exit.
void WriteBenchJsonSidecar(const char* path) {
  server::Json metrics = server::Json::Object();
  const telemetry::RegistrySnapshot snapshot =
      telemetry::GlobalRegistry().Snapshot();
  for (const auto& [name, value] : snapshot.gauges) {
    if (name.rfind("karl_bench_", 0) == 0) {
      metrics.Set(name, server::Json::Number(value));
    }
  }

  char host[256] = {0};
  if (::gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  char date[32] = {0};
  const std::time_t now = std::time(nullptr);
  std::tm utc{};
  if (gmtime_r(&now, &utc) != nullptr) {
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", &utc);
  }

  server::Json root = server::Json::Object();
  root.Set("schema", server::Json::Str("karl-bench-v1"));
  root.Set("bench", server::Json::Str(program_invocation_short_name));
  root.Set("version", server::Json::Str(util::BuildVersion()));
  root.Set("git_sha", server::Json::Str(util::BuildGitSha()));
  root.Set("build_type", server::Json::Str(util::BuildType()));
  root.Set("date", server::Json::Str(date));
  root.Set("host", server::Json::Str(host));
  root.Set("scale", server::Json::Number(BenchScale()));
  root.Set("queries",
           server::Json::Number(static_cast<double>(BenchQueries())));
  root.Set("threads",
           server::Json::Number(static_cast<double>(BenchThreads())));
  root.Set("metrics", std::move(metrics));

  const std::string body = root.Dump() + "\n";
  std::FILE* f = std::fopen(path, "we");
  if (f == nullptr) {
    std::fprintf(stderr, "bench json sidecar: cannot open '%s'\n", path);
    return;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

}  // namespace

void RecordBenchMetric(const std::string& name, double value) {
  std::string metric = "karl_bench_" + name;
  for (char& ch : metric) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_';
    if (!ok) ch = '_';
  }
  telemetry::GlobalRegistry().GetGauge(metric)->Set(value);

  const char* path = std::getenv("KARL_BENCH_JSON_OUT");
  if (path != nullptr && *path != '\0') {
    static const bool armed = [] {
      std::atexit(+[] {
        const char* out = std::getenv("KARL_BENCH_JSON_OUT");
        if (out == nullptr || *out == '\0') return;
        WriteBenchJsonSidecar(out);
      });
      return true;
    }();
    (void)armed;
  }
}

EngineOptions DefaultOptions(const Workload& w) {
  EngineOptions options;
  options.kernel = w.kernel;
  options.bounds = core::BoundKind::kKarl;
  options.index_kind = index::IndexKind::kKdTree;
  options.leaf_capacity = 80;
  return options;
}

double MeasureScanThroughput(const Workload& w, const core::QuerySpec& spec) {
  util::Stopwatch timer;
  volatile double sink = 0.0;
  for (size_t i = 0; i < w.queries.rows(); ++i) {
    const double f = core::ExactAggregate(w.points, w.weights, w.kernel,
                                          w.queries.Row(i));
    sink = spec.kind == core::QuerySpec::Kind::kThreshold
               ? (f > spec.tau ? 1.0 : 0.0)
               : f;
  }
  (void)sink;
  const double qps = static_cast<double>(w.queries.rows()) /
                     std::max(timer.ElapsedSeconds(), 1e-9);
  RecordBenchMetric("scan_qps_" + w.dataset, qps);
  return qps;
}

double MeasureLibsvmThroughput(const Workload& w,
                               const core::QuerySpec& spec) {
  // LibSVM's predictor: CSR-stored support vectors, sparse dot products,
  // then a threshold comparison. On dense data this tracks SCAN, as in
  // Table VII; on sparse data it runs ahead of it.
  const data::SparseMatrix sparse = data::SparseMatrix::FromDense(w.points);
  util::Stopwatch timer;
  volatile double sink = 0.0;
  for (size_t i = 0; i < w.queries.rows(); ++i) {
    const double f = core::ExactAggregateSparse(sparse, w.weights, w.kernel,
                                                w.queries.Row(i));
    sink = f > spec.tau ? 1.0 : -1.0;
  }
  (void)sink;
  const double qps = static_cast<double>(w.queries.rows()) /
                     std::max(timer.ElapsedSeconds(), 1e-9);
  RecordBenchMetric("libsvm_qps_" + w.dataset, qps);
  return qps;
}

double MeasureEngineThroughput(const Workload& w, const core::QuerySpec& spec,
                               const EngineOptions& options) {
  auto engine = Engine::Build(w.points, w.weights, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  return core::MeasureThroughput(engine.value(), w.queries, spec);
}

double MeasureBatchThroughput(const Workload& w, const core::QuerySpec& spec,
                              const EngineOptions& options, size_t threads) {
  auto engine = Engine::Build(w.points, w.weights, options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::abort();
  }
  // threads == 1 runs the serial batch path (no pool, no scheduling
  // overhead) — the honest single-thread baseline for scaling ratios.
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads);

  util::Stopwatch timer;
  if (spec.kind == core::QuerySpec::Kind::kThreshold) {
    const auto out =
        engine.value().TkaqBatch(w.queries, spec.tau, pool.get());
    (void)out;
  } else {
    const auto out =
        engine.value().EkaqBatch(w.queries, spec.eps, pool.get());
    (void)out;
  }
  const double qps = static_cast<double>(w.queries.rows()) /
                     std::max(timer.ElapsedSeconds(), 1e-9);
  RecordBenchMetric(
      "batch_qps_" + w.dataset + "_threads_" + std::to_string(threads), qps);
  return qps;
}

double MeasureBestOverGrid(const Workload& w, const core::QuerySpec& spec,
                           core::BoundKind bounds) {
  double best = 0.0;
  for (const auto& config : core::DefaultTuningGrid()) {
    EngineOptions options = DefaultOptions(w);
    options.bounds = bounds;
    options.index_kind = config.kind;
    options.leaf_capacity = config.leaf_capacity;
    best = std::max(best, MeasureEngineThroughput(w, spec, options));
  }
  RecordBenchMetric(
      (bounds == core::BoundKind::kKarl ? "karl_best_qps_" : "sota_best_qps_") +
          w.dataset,
      best);
  return best;
}

double MeasureKarlAuto(const Workload& w, const core::QuerySpec& spec) {
  // Tune on a sample of the query set (paper: 1000 sampled vectors; here
  // bounded by the workload's query count).
  const size_t sample = std::max<size_t>(1, w.queries.rows() / 4);
  util::Rng rng(99);
  const auto rows = rng.SampleWithoutReplacement(w.queries.rows(), sample);
  const data::Matrix sample_queries = w.queries.SelectRows(rows);

  auto tuned = core::OfflineTune(w.points, w.weights, DefaultOptions(w),
                                 sample_queries, spec,
                                 core::DefaultTuningGrid());
  if (!tuned.ok()) {
    std::fprintf(stderr, "offline tuning failed: %s\n",
                 tuned.status().ToString().c_str());
    std::abort();
  }
  EngineOptions options = DefaultOptions(w);
  options.index_kind = tuned.value().best.kind;
  options.leaf_capacity = tuned.value().best.leaf_capacity;
  const double qps = MeasureEngineThroughput(w, spec, options);
  RecordBenchMetric("karl_auto_qps_" + w.dataset, qps);
  return qps;
}

core::IndexConfig TuneConfigOnce(const Workload& w,
                                 const core::QuerySpec& spec,
                                 core::BoundKind bounds) {
  const size_t sample = std::max<size_t>(1, w.queries.rows() / 4);
  util::Rng rng(98);
  const auto rows = rng.SampleWithoutReplacement(w.queries.rows(), sample);
  const data::Matrix sample_queries = w.queries.SelectRows(rows);

  EngineOptions base = DefaultOptions(w);
  base.bounds = bounds;
  auto tuned = core::OfflineTune(w.points, w.weights, base, sample_queries,
                                 spec, core::DefaultTuningGrid());
  if (!tuned.ok()) {
    std::fprintf(stderr, "offline tuning failed: %s\n",
                 tuned.status().ToString().c_str());
    std::abort();
  }
  return tuned.value().best;
}

double MeasureWithConfig(const Workload& w, const core::QuerySpec& spec,
                         core::BoundKind bounds,
                         const core::IndexConfig& config) {
  EngineOptions options = DefaultOptions(w);
  options.bounds = bounds;
  options.index_kind = config.kind;
  options.leaf_capacity = config.leaf_capacity;
  return MeasureEngineThroughput(w, spec, options);
}

void PrintTableHeader(const std::vector<std::string>& columns) {
  for (const auto& col : columns) std::printf("%14s", col.c_str());
  std::printf("\n");
  for (size_t i = 0; i < columns.size(); ++i) std::printf("%14s", "------");
  std::printf("\n");
}

void PrintTableRow(const std::vector<std::string>& cells) {
  for (const auto& cell : cells) std::printf("%14s", cell.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string FormatQps(double qps) {
  char buffer[32];
  if (qps >= 1000.0) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", qps);
  } else if (qps >= 10.0) {
    std::snprintf(buffer, sizeof(buffer), "%.1f", qps);
  } else {
    std::snprintf(buffer, sizeof(buffer), "%.2f", qps);
  }
  return buffer;
}

}  // namespace karl::bench
