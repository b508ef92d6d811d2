// Thread-safe metrics layer: monotonic counters, gauges, and log-bucketed
// latency histograms with quantile estimation, collected in a named
// registry and exported as Prometheus text.
//
// Cost model: metric *lookup* (Registry::GetX) takes a mutex and is meant
// for construction time; the returned handles are stable for the life of
// the registry, and every mutation on them is a handful of relaxed
// atomics — safe from any number of threads, no locks on the hot path.
// The engines reference telemetry through nullable pointers
// (`EngineOptions::metrics` etc.), so the disabled path is a single
// null-pointer test and the default-constructed system never allocates a
// metric at all.

#ifndef KARL_TELEMETRY_METRICS_H_
#define KARL_TELEMETRY_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/labels.h"
#include "util/mutex.h"
#include "util/status.h"

namespace karl::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous level (queue depths, byte counts, ...).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Histogram bucket layout: geometric buckets growing by 2^(1/4) (≈19% per
// bucket, so quantile estimates carry at most ~9% mid-bucket relative
// error), spanning [2^-40, 2^40) ≈ [9.1e-13, 1.1e12) — microsecond
// latencies from sub-nanosecond to days, or any other positive quantity —
// plus an underflow bucket (index 0, everything ≤ 2^-40 including
// non-positives) and an overflow bucket.
inline constexpr int kHistogramSubBucketsPerOctave = 4;
inline constexpr int kHistogramMinPow2 = -40;
inline constexpr int kHistogramMaxPow2 = 40;
inline constexpr int kHistogramBuckets =
    (kHistogramMaxPow2 - kHistogramMinPow2) * kHistogramSubBucketsPerOctave +
    2;

/// Bucket index a value lands in; total order consistent with the value
/// order. Exposed (with the bound functions) so tests can pin the layout.
int HistogramBucketIndex(double value);

/// Inclusive lower bound of bucket `index` (0 for the underflow bucket).
double HistogramBucketLowerBound(int index);

/// Exclusive upper bound of bucket `index` (+inf for the overflow bucket).
double HistogramBucketUpperBound(int index);

/// A point-in-time copy of a histogram's state, with quantile estimation.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  ///< 0 when count == 0.
  double max = 0.0;

  std::array<uint64_t, kHistogramBuckets> buckets{};

  /// Estimates the q-quantile (q in [0, 1]) by geometric interpolation
  /// within the containing bucket, clamped to the exact [min, max].
  /// Returns 0 for an empty histogram.
  double Quantile(double q) const;
};

/// Log-bucketed distribution of a positive quantity. Recording is a few
/// relaxed atomic operations; snapshots and quantiles are taken off the
/// hot path. Not a registry kind of its own: it is the cumulative half
/// of RollingHistogram, and a local summary for callers that export
/// nothing.
class Histogram {
 public:
  void Record(double value);
  HistogramSnapshot Snapshot() const;

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> counts_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // Extremes only meaningful while count_ > 0; snapshots report 0 for an
  // empty histogram.
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

// Defined in telemetry/rolling.h; the registry stores rolling histograms
// by pointer so this header stays free of the time-wheel machinery.
class RollingHistogram;

/// Cumulative + last-window views of one RollingHistogram, copied at a
/// point in time.
struct RollingHistogramSnapshot {
  HistogramSnapshot cumulative;
  HistogramSnapshot window;
  uint64_t window_span_s = 0;
};

/// All metric values of one registry, copied at a point in time. Names are
/// sorted, so exposition output is deterministic.
struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, RollingHistogramSnapshot>> rolling;
};

/// Named metric store. Get* returns the existing metric or creates it;
/// the returned pointer stays valid for the registry's lifetime. A
/// *family* (the name with any label block stripped) identifies exactly
/// one metric kind — reusing it with a different kind, labeled or not,
/// is a programming error and aborts.
///
/// Labeled lookup: Get*(name, labels) resolves the series
/// `name{k="v",...}`. Distinct label sets per family are capped at
/// kMaxSeriesPerMetric; a set past the cap is redirected to the
/// family's sink series (every value `__other__`) and counted in
/// `karl_metric_series_dropped_total` — unbounded label values (client
/// ids, paths) degrade gracefully instead of exhausting memory. Lookup
/// takes the registry mutex either way; intern the handle, then record
/// lock-free exactly as with unlabeled metrics.
class Registry {
 public:
  /// Per-family cap on distinct labeled series.
  static constexpr size_t kMaxSeriesPerMetric = 64;

  // Both out of line: RollingHistogram is incomplete here, and the
  // member maps' unique_ptrs need the complete type to destroy.
  Registry();
  ~Registry();
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  /// The registry's one histogram kind: cumulative plus a rolling
  /// last-60s window; shows up in the exposition under `name`
  /// (cumulative) and `name_window60s` (windowed). See
  /// telemetry/rolling.h.
  RollingHistogram* GetRollingHistogram(const std::string& name);

  /// Labeled variants: resolve the series `name + labels.Render()`,
  /// subject to the per-family cardinality cap. An empty LabelSet is the
  /// unlabeled series. `name` must be the bare family name (no '{').
  Counter* GetCounter(const std::string& name, const LabelSet& labels);
  Gauge* GetGauge(const std::string& name, const LabelSet& labels);
  RollingHistogram* GetRollingHistogram(const std::string& name,
                                        const LabelSet& labels);

  RegistrySnapshot Snapshot() const;

 private:
  enum class Kind { kCounter, kGauge, kRollingHistogram };
  // Records the family→kind binding; aborts on a kind clash.
  void RegisterKind(const std::string& name, Kind kind)
      KARL_REQUIRES(mu_);
  // Maps (family, labels) to the series name to store under, applying
  // the cardinality cap and counting redirected lookups.
  std::string AdmitSeries(const std::string& name, const LabelSet& labels)
      KARL_REQUIRES(mu_);
  Counter* GetCounterSeries(const std::string& series, Kind kind)
      KARL_REQUIRES(mu_);

  mutable util::Mutex mu_;
  std::map<std::string, Kind> kinds_ KARL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Counter>> counters_
      KARL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      KARL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<RollingHistogram>> rolling_
      KARL_GUARDED_BY(mu_);
  // Rendered label blocks admitted per family (sink block included).
  std::map<std::string, std::vector<std::string>> family_labels_
      KARL_GUARDED_BY(mu_);
};

/// The process-wide default registry (what the CLI flags and the bench
/// sidecar expose).
Registry& GlobalRegistry();

/// Metric name with any trailing Prometheus label set ("{...}") removed —
/// what `# TYPE` lines must carry for labeled series such as
/// `karl_build_info{version="...",git_sha="..."}`.
std::string MetricBaseName(const std::string& name);

/// Prometheus text exposition: counters and gauges as single samples,
/// rolling histograms as summaries with {quantile="0|0.5|0.95|0.99|1"}
/// plus _sum and _count — the cumulative summary under the histogram's
/// name plus a `name_window60s` summary for the last window.
/// Labeled series render with exact label syntax — the quantile label
/// merges into the series' label block (`f{model="a",quantile="0.5"}`),
/// suffixes bind to the name (`f_sum{model="a"}`,
/// `f_window60s{model="a"}`), samples of one family are grouped, and
/// `# TYPE` is emitted once per family.
std::string DumpText(const Registry& registry);

/// Writes DumpText(registry) to `path` (whatever its extension).
util::Status WriteMetricsFile(const Registry& registry,
                              const std::string& path);

}  // namespace karl::telemetry

#endif  // KARL_TELEMETRY_METRICS_H_
