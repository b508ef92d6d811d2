#include "telemetry/metrics.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "telemetry/rolling.h"
#include "util/check.h"

namespace karl::telemetry {

namespace {

// Prometheus text sample value: %.17g round-trips every finite double;
// the exposition format spells the rest NaN, +Inf and -Inf.
void AppendSampleValue(std::string* out, double v) {
  if (std::isnan(v)) {
    out->append("NaN");
    return;
  }
  if (std::isinf(v)) {
    out->append(v > 0 ? "+Inf" : "-Inf");
    return;
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  out->append(buffer);
}

void AtomicAdd(std::atomic<double>& target, double delta) {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v < cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>& target, double v) {
  double cur = target.load(std::memory_order_relaxed);
  while (v > cur &&
         !target.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

int HistogramBucketIndex(double value) {
  if (!(value > 0.0)) return 0;  // Non-positives and NaN underflow.
  const double log2v = std::log2(value);
  if (log2v < kHistogramMinPow2) return 0;
  if (log2v >= kHistogramMaxPow2) return kHistogramBuckets - 1;
  const int sub = static_cast<int>(
      std::floor((log2v - kHistogramMinPow2) *
                 static_cast<double>(kHistogramSubBucketsPerOctave)));
  return 1 + std::clamp(sub, 0, kHistogramBuckets - 3);
}

double HistogramBucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  if (index >= kHistogramBuckets - 1) {
    return std::exp2(static_cast<double>(kHistogramMaxPow2));
  }
  return std::exp2(static_cast<double>(kHistogramMinPow2) +
                   static_cast<double>(index - 1) /
                       static_cast<double>(kHistogramSubBucketsPerOctave));
}

double HistogramBucketUpperBound(int index) {
  if (index >= kHistogramBuckets - 1) {
    return std::numeric_limits<double>::infinity();
  }
  return HistogramBucketLowerBound(index + 1);
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Fractional 1-based rank of the requested order statistic.
  const double target = q * static_cast<double>(count - 1) + 1.0;
  uint64_t cum = 0;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    const uint64_t c = buckets[i];
    if (c == 0) continue;
    if (static_cast<double>(cum) + static_cast<double>(c) >= target) {
      // Interpolate geometrically inside the bucket, trimmed to the
      // observed [min, max] so single-bucket histograms stay tight.
      const double lo = std::max(HistogramBucketLowerBound(i), min);
      const double hi = std::min(HistogramBucketUpperBound(i), max);
      if (!(hi > lo)) return std::clamp(lo, min, max);
      // Position the 1-based in-bucket rank so the bucket's first item
      // maps to `lo` and its last to `hi` (a single item maps to `lo`,
      // which the [min, max] trim has already tightened).
      const double in_bucket = target - static_cast<double>(cum) - 1.0;
      const double frac =
          c > 1 ? std::clamp(in_bucket / static_cast<double>(c - 1), 0.0, 1.0)
                : 0.0;
      const double v = lo > 0.0 ? lo * std::pow(hi / lo, frac)
                                : lo + (hi - lo) * frac;
      return std::clamp(v, min, max);
    }
    cum += c;
  }
  return max;
}

void Histogram::Record(double value) {
  counts_[static_cast<size_t>(HistogramBucketIndex(value))].fetch_add(
      1, std::memory_order_relaxed);
  AtomicAdd(sum_, value);
  AtomicMin(min_, value);
  AtomicMax(max_, value);
  count_.fetch_add(1, std::memory_order_relaxed);
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot snap;
  for (int i = 0; i < kHistogramBuckets; ++i) {
    snap.buckets[static_cast<size_t>(i)] =
        counts_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = snap.count == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  snap.max = snap.count == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  return snap;
}

Registry::Registry() = default;
Registry::~Registry() = default;

void Registry::RegisterKind(const std::string& name, Kind kind) {
  // Kinds bind to the *family*, so `f` and `f{model="a"}` must agree.
  const std::string base = MetricBaseName(name);
  const auto [it, inserted] = kinds_.emplace(base, kind);
  KARL_CHECK(it->second == kind)
      << ": telemetry metric '" << base << "' reused with a different kind";
}

Counter* Registry::GetCounterSeries(const std::string& series, Kind kind) {
  RegisterKind(series, kind);
  auto& slot = counters_[series];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

std::string Registry::AdmitSeries(const std::string& name,
                                  const LabelSet& labels) {
  KARL_CHECK(name.find('{') == std::string::npos)
      << ": labeled lookup of '" << name
      << "' must pass a bare family name";
  if (labels.empty()) return name;
  const std::string rendered = labels.Render();
  auto& known = family_labels_[name];
  if (std::find(known.begin(), known.end(), rendered) != known.end()) {
    return name + rendered;
  }
  if (known.size() < kMaxSeriesPerMetric) {
    known.push_back(rendered);
    return name + rendered;
  }
  // Past the cap: collapse into the family's sink series. The sink does
  // not consume cap budget (it must stay reachable), and every redirected
  // lookup counts — callers intern handles, so a steady-state series
  // costs one increment, not one per record. Asking for the sink by its
  // own labels is not a drop.
  const std::string overflow = labels.Overflow().Render();
  if (rendered != overflow) {
    GetCounterSeries("karl_metric_series_dropped_total", Kind::kCounter)
        ->Increment();
  }
  return name + overflow;
}

Counter* Registry::GetCounter(const std::string& name) {
  const util::MutexLock lock(&mu_);
  return GetCounterSeries(name, Kind::kCounter);
}

Gauge* Registry::GetGauge(const std::string& name) {
  const util::MutexLock lock(&mu_);
  RegisterKind(name, Kind::kGauge);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

RollingHistogram* Registry::GetRollingHistogram(const std::string& name) {
  const util::MutexLock lock(&mu_);
  RegisterKind(name, Kind::kRollingHistogram);
  auto& slot = rolling_[name];
  if (slot == nullptr) slot = std::make_unique<RollingHistogram>();
  return slot.get();
}

Counter* Registry::GetCounter(const std::string& name,
                              const LabelSet& labels) {
  const util::MutexLock lock(&mu_);
  return GetCounterSeries(AdmitSeries(name, labels), Kind::kCounter);
}

Gauge* Registry::GetGauge(const std::string& name, const LabelSet& labels) {
  const util::MutexLock lock(&mu_);
  const std::string series = AdmitSeries(name, labels);
  RegisterKind(series, Kind::kGauge);
  auto& slot = gauges_[series];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

RollingHistogram* Registry::GetRollingHistogram(const std::string& name,
                                                const LabelSet& labels) {
  const util::MutexLock lock(&mu_);
  const std::string series = AdmitSeries(name, labels);
  RegisterKind(series, Kind::kRollingHistogram);
  auto& slot = rolling_[series];
  if (slot == nullptr) slot = std::make_unique<RollingHistogram>();
  return slot.get();
}

RegistrySnapshot Registry::Snapshot() const {
  const util::MutexLock lock(&mu_);
  RegistrySnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.rolling.reserve(rolling_.size());
  for (const auto& [name, rolling] : rolling_) {
    RollingHistogramSnapshot rs;
    rs.cumulative = rolling->CumulativeSnapshot();
    rs.window = rolling->WindowSnapshot();
    rs.window_span_s = RollingHistogram::WindowSpanSeconds();
    snap.rolling.emplace_back(name, rs);
  }
  return snap;
}

Registry& GlobalRegistry() {
  static Registry* const kRegistry = new Registry();  // Never destroyed.
  return *kRegistry;
}

std::string MetricBaseName(const std::string& name) {
  const size_t brace = name.find('{');
  return brace == std::string::npos ? name : name.substr(0, brace);
}

namespace {

// Orders a snapshot section so all series of one family are adjacent
// (the text format requires one contiguous group per metric), labeled
// series in deterministic label order.
template <typename T>
std::vector<std::pair<std::string, T>> SortedByFamily(
    std::vector<std::pair<std::string, T>> section) {
  std::sort(section.begin(), section.end(),
            [](const auto& a, const auto& b) {
              const SeriesNameParts pa = SplitSeriesName(a.first);
              const SeriesNameParts pb = SplitSeriesName(b.first);
              if (pa.base != pb.base) return pa.base < pb.base;
              return pa.labels < pb.labels;
            });
  return section;
}

// One Prometheus summary block for one series (TYPE line only on the
// family's first series): quantile samples with the quantile label merged
// into the series' label block, then _sum and _count with the suffix
// bound to the name.
void AppendSummaryText(std::string* out, const std::string& series,
                       const HistogramSnapshot& h, bool emit_type) {
  if (emit_type) {
    *out += "# TYPE " + MetricBaseName(series) + " summary\n";
  }
  const std::pair<const char*, double> quantiles[] = {
      {"0", h.min},          {"0.5", h.Quantile(0.5)},
      {"0.95", h.Quantile(0.95)}, {"0.99", h.Quantile(0.99)},
      {"1", h.max}};
  for (const auto& [q, value] : quantiles) {
    *out += SeriesWithLabel(series, "quantile", q) + " ";
    AppendSampleValue(out, value);
    *out += "\n";
  }
  *out += SeriesWithSuffix(series, "_sum") + " ";
  AppendSampleValue(out, h.sum);
  *out += "\n";
  char line[32];
  std::snprintf(line, sizeof(line), " %llu\n",
                static_cast<unsigned long long>(h.count));
  *out += SeriesWithSuffix(series, "_count") + line;
}

}  // namespace

std::string DumpText(const Registry& registry) {
  const RegistrySnapshot snap = registry.Snapshot();
  std::string out;
  char line[160];
  // `# TYPE` belongs to the family, once, before its first sample; a
  // family's labeled series share one line.
  std::string last_family;
  const auto family_changed = [&last_family](const std::string& series) {
    std::string base = MetricBaseName(series);
    if (base == last_family) return false;
    last_family = std::move(base);
    return true;
  };
  for (const auto& [name, value] : SortedByFamily(snap.counters)) {
    if (family_changed(name)) {
      out += "# TYPE " + MetricBaseName(name) + " counter\n";
    }
    std::snprintf(line, sizeof(line), " %llu\n",
                  static_cast<unsigned long long>(value));
    out += name + line;
  }
  last_family.clear();
  for (const auto& [name, value] : SortedByFamily(snap.gauges)) {
    if (family_changed(name)) {
      out += "# TYPE " + MetricBaseName(name) + " gauge\n";
    }
    out += name + " ";
    AppendSampleValue(&out, value);
    out += "\n";
  }
  // Rolling histograms expose two families: the cumulative summaries
  // under the family name, then every series' last window under
  // `base_window60s`. Emit per family group so samples stay contiguous.
  const auto rolling = SortedByFamily(snap.rolling);
  for (size_t i = 0; i < rolling.size();) {
    const std::string base = MetricBaseName(rolling[i].first);
    size_t end = i;
    while (end < rolling.size() &&
           MetricBaseName(rolling[end].first) == base) {
      ++end;
    }
    for (size_t j = i; j < end; ++j) {
      AppendSummaryText(&out, rolling[j].first, rolling[j].second.cumulative,
                        j == i);
    }
    for (size_t j = i; j < end; ++j) {
      const std::string window_suffix =
          "_window" + std::to_string(rolling[j].second.window_span_s) + "s";
      AppendSummaryText(&out, SeriesWithSuffix(rolling[j].first, window_suffix),
                        rolling[j].second.window, j == i);
    }
    i = end;
  }
  return out;
}

util::Status WriteMetricsFile(const Registry& registry,
                              const std::string& path) {
  // Write-to-temp + rename so a concurrent scraper reading `path` always
  // observes a complete old or new file, never a truncated one. The temp
  // name is pid-qualified so concurrent processes scraping into the same
  // path do not clobber each other's partial writes.
  const std::string tmp = path + ".tmp-" + std::to_string(::getpid());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return util::Status::IOError("cannot open metrics file '" + tmp + "'");
    }
    const std::string body = DumpText(registry);
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return util::Status::IOError("failed writing metrics file '" + tmp +
                                   "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return util::Status::IOError("cannot rename '" + tmp + "' to '" + path +
                                 "'");
  }
  return util::Status::OK();
}

}  // namespace karl::telemetry
