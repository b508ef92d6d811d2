// Unit tests for the telemetry subsystem: counter/gauge semantics,
// histogram bucket layout and quantile accuracy, registry behavior,
// concurrent mutation (run under the debug-tsan preset to prove the hot
// path is race-free), trace recording, and exposition-format validity.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "telemetry/context.h"
#include "telemetry/flight_recorder.h"
#include "telemetry/metrics.h"
#include "telemetry/rolling.h"
#include "telemetry/trace.h"

namespace karl::telemetry {
namespace {

// Minimal recursive-descent JSON syntax checker — enough to assert the
// exposition strings are well-formed without an external parser.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      const char ch = text_[pos_];
      if (ch == '\\') {
        pos_ += 2;
        continue;
      }
      if (ch == '"') {
        ++pos_;
        return true;
      }
      ++pos_;
    }
    return false;
  }

  bool Number() {
    const size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CounterTest, IncrementAndAdd) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
  g.Set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.Add(-1.25);
  EXPECT_DOUBLE_EQ(g.value(), 2.25);
  g.Set(-7.0);
  EXPECT_DOUBLE_EQ(g.value(), -7.0);
}

TEST(HistogramLayoutTest, BoundsBracketTheirValues) {
  // Every sampled value must land in a bucket whose [lower, upper) range
  // contains it, and the index must be monotone in the value.
  const std::vector<double> samples = {1e-9, 0.001, 0.5,  1.0,   1.5,
                                       2.0,  100.0, 1e6,  1e9,   3e11};
  int prev = -1;
  for (const double v : samples) {
    const int idx = HistogramBucketIndex(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, kHistogramBuckets);
    EXPECT_LE(HistogramBucketLowerBound(idx), v) << "value " << v;
    EXPECT_LT(v, HistogramBucketUpperBound(idx)) << "value " << v;
    EXPECT_GE(idx, prev) << "index not monotone at value " << v;
    prev = idx;
  }
}

TEST(HistogramLayoutTest, EdgeValuesUseSentinelBuckets) {
  // Non-positive and sub-range values fall in the underflow bucket 0;
  // values at or beyond 2^40 in the overflow bucket.
  EXPECT_EQ(HistogramBucketIndex(0.0), 0);
  EXPECT_EQ(HistogramBucketIndex(-5.0), 0);
  EXPECT_EQ(HistogramBucketIndex(std::ldexp(1.0, kHistogramMinPow2 - 1)), 0);
  EXPECT_EQ(HistogramBucketIndex(std::ldexp(1.0, kHistogramMaxPow2)),
            kHistogramBuckets - 1);
  EXPECT_EQ(HistogramBucketIndex(1e300), kHistogramBuckets - 1);
  EXPECT_DOUBLE_EQ(HistogramBucketLowerBound(0), 0.0);
  EXPECT_TRUE(std::isinf(HistogramBucketUpperBound(kHistogramBuckets - 1)));
}

TEST(HistogramLayoutTest, OctaveBoundariesAreExactPowersOfTwo) {
  // 1.0 = 2^0 starts a bucket, and each octave spans exactly
  // kHistogramSubBucketsPerOctave buckets.
  const int one = HistogramBucketIndex(1.0);
  EXPECT_DOUBLE_EQ(HistogramBucketLowerBound(one), 1.0);
  const int two = HistogramBucketIndex(2.0);
  EXPECT_EQ(two - one, kHistogramSubBucketsPerOctave);
  EXPECT_DOUBLE_EQ(HistogramBucketLowerBound(two), 2.0);
}

TEST(HistogramTest, CountSumMinMax) {
  Histogram h;
  h.Record(2.0);
  h.Record(8.0);
  h.Record(4.0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 14.0);
  EXPECT_DOUBLE_EQ(snap.min, 2.0);
  EXPECT_DOUBLE_EQ(snap.max, 8.0);
}

TEST(HistogramTest, EmptySnapshotIsAllZero) {
  const HistogramSnapshot snap = Histogram().Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.min, 0.0);
  EXPECT_DOUBLE_EQ(snap.max, 0.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 0.0);
}

TEST(HistogramTest, QuantilesOfKnownDistribution) {
  // Uniform 1..1000: with ~19%-wide buckets and geometric interpolation
  // the mid-range quantiles must land within ~15% of the exact order
  // statistics; the extremes are tracked exactly.
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 1000.0);
  EXPECT_NEAR(snap.Quantile(0.5), 500.0, 0.15 * 500.0);
  EXPECT_NEAR(snap.Quantile(0.95), 950.0, 0.15 * 950.0);
  EXPECT_NEAR(snap.Quantile(0.99), 990.0, 0.15 * 990.0);
  // Quantiles are monotone in q.
  EXPECT_LE(snap.Quantile(0.5), snap.Quantile(0.95));
  EXPECT_LE(snap.Quantile(0.95), snap.Quantile(0.99));
}

TEST(HistogramTest, SingleValueQuantilesCollapse) {
  Histogram h;
  h.Record(7.0);
  const HistogramSnapshot snap = h.Snapshot();
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(1.0), 7.0);
}

TEST(RegistryTest, SameNameReturnsSameHandle) {
  Registry registry;
  Counter* c1 = registry.GetCounter("events_total");
  Counter* c2 = registry.GetCounter("events_total");
  EXPECT_EQ(c1, c2);
  EXPECT_NE(registry.GetGauge("depth"), nullptr);
  EXPECT_EQ(registry.GetRollingHistogram("latency"),
            registry.GetRollingHistogram("latency"));
}

TEST(RegistryTest, SnapshotIsSortedAndComplete) {
  Registry registry;
  registry.GetCounter("zeta_total")->Add(3);
  registry.GetCounter("alpha_total")->Add(1);
  registry.GetGauge("depth")->Set(4.0);
  registry.GetRollingHistogram("latency")->Record(2.0);
  const RegistrySnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "alpha_total");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "zeta_total");
  EXPECT_EQ(snap.counters[1].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.gauges[0].second, 4.0);
  ASSERT_EQ(snap.rolling.size(), 1u);
  EXPECT_EQ(snap.rolling[0].second.cumulative.count, 1u);
}

TEST(RegistryTest, ConcurrentMutationIsExact) {
  // 8 threads hammer one counter, one gauge, and one histogram through
  // shared handles; totals must come out exact. Under debug-tsan this is
  // also the data-race proof for the hot path.
  Registry registry;
  Counter* counter = registry.GetCounter("hits_total");
  Gauge* gauge = registry.GetGauge("level");
  RollingHistogram* histogram = registry.GetRollingHistogram("latency");
  constexpr int kThreads = 8;
  constexpr int kIters = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        counter->Increment();
        gauge->Add(1.0);
        histogram->Record(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter->value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(gauge->value(), static_cast<double>(kThreads) * kIters);
  const HistogramSnapshot snap = histogram->CumulativeSnapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, static_cast<double>(kThreads));
}

TEST(ExpositionTest, DumpTextHasTypesAndQuantiles) {
  Registry registry;
  registry.GetCounter("requests_total")->Add(5);
  registry.GetGauge("depth")->Set(2.5);
  for (int i = 1; i <= 100; ++i) {
    registry.GetRollingHistogram("latency_usec")
        ->Record(static_cast<double>(i));
  }
  const std::string text = DumpText(registry);
  EXPECT_NE(text.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("requests_total 5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge"), std::string::npos);
  EXPECT_NE(text.find("latency_usec{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("latency_usec_count 100"), std::string::npos);
  EXPECT_NE(text.find("latency_usec_sum"), std::string::npos);
}

TEST(ExpositionTest, EmptyRegistryDumpsAreValid) {
  Registry registry;
  EXPECT_EQ(DumpText(registry), "");
}

TEST(ExpositionTest, DumpTextSpellsNonFiniteSamplesThePrometheusWay) {
  Registry registry;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  registry.GetGauge("nan_level")->Set(std::nan(""));
  registry.GetGauge("pos_level")->Set(kInf);
  registry.GetGauge("neg_level")->Set(-kInf);
  const std::string text = DumpText(registry);
  EXPECT_NE(text.find("nan_level NaN\n"), std::string::npos) << text;
  EXPECT_NE(text.find("pos_level +Inf\n"), std::string::npos) << text;
  EXPECT_NE(text.find("neg_level -Inf\n"), std::string::npos) << text;
  EXPECT_EQ(text.find("null"), std::string::npos) << text;
}

TEST(ExpositionTest, WriteMetricsFileWritesPrometheusTextForAnyExtension) {
  Registry registry;
  registry.GetCounter("writes_total")->Increment();
  for (const char* name :
       {"telemetry_test_metrics.json", "telemetry_test_metrics.prom"}) {
    const std::string path = ::testing::TempDir() + "/" + name;
    ASSERT_TRUE(WriteMetricsFile(registry, path).ok());
    EXPECT_EQ(ReadFile(path), DumpText(registry)) << name;
    EXPECT_NE(ReadFile(path).find("# TYPE writes_total counter"),
              std::string::npos);
    std::remove(path.c_str());
  }
}

TEST(ExpositionTest, WriteMetricsFileIsAtomicUnderConcurrentReads) {
  // The writer publishes via temp-file + rename, so a concurrent reader
  // must always see a complete document — never a torn or empty one.
  // A complete one is exactly a TYPE line plus one sample line.
  Registry registry;
  auto* counter = registry.GetCounter("atomic_writes_total");
  const std::string path =
      ::testing::TempDir() + "/telemetry_test_atomic.prom";
  const auto complete = [](const std::string& text) {
    const std::string head =
        "# TYPE atomic_writes_total counter\natomic_writes_total ";
    return text.size() > head.size() && text.rfind(head, 0) == 0 &&
           text.back() == '\n' &&
           std::count(text.begin(), text.end(), '\n') == 2;
  };
  ASSERT_TRUE(WriteMetricsFile(registry, path).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> torn_reads{0};
  std::atomic<int> good_reads{0};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const std::string text = ReadFile(path);
      if (!complete(text)) {
        torn_reads.fetch_add(1, std::memory_order_relaxed);
      } else {
        good_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    counter->Increment();
    ASSERT_TRUE(WriteMetricsFile(registry, path).ok());
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_GT(good_reads.load(), 0);
  // The temp file never outlives a successful publish.
  EXPECT_TRUE(ReadFile(path + ".tmp-" + std::to_string(::getpid())).empty());
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, RecordsAllEventShapes) {
  TraceRecorder recorder;
  const uint64_t t0 = MonotonicMicros();
  recorder.CompleteEvent("query", t0, 12, {{"iterations", 3.0}});
  recorder.CounterEvent("karl.bounds", t0 + 1, {{"lb", 0.5}, {"ub", 1.5}});
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 0u);
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"C\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\""), std::string::npos);
  EXPECT_NE(json.find("\"iterations\""), std::string::npos);
}

TEST(TraceRecorderTest, CapDropsInsteadOfGrowing) {
  TraceRecorder recorder(2);
  for (int i = 0; i < 5; ++i) {
    recorder.CompleteEvent("e", static_cast<uint64_t>(i), 1, {});
  }
  EXPECT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.dropped(), 3u);
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"droppedEvents\": 3"), std::string::npos);
}

TEST(TraceRecorderTest, WriteJsonRoundTripsThroughDisk) {
  TraceRecorder recorder;
  recorder.CompleteEvent("query", 0, 5, {{"result", 1.0}});
  const std::string path = ::testing::TempDir() + "/telemetry_test_trace.json";
  ASSERT_TRUE(recorder.WriteJson(path).ok());
  const std::string json = ReadFile(path);
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, FlowEventsCarryCategoryIdAndBindingPoint) {
  TraceRecorder recorder;
  recorder.FlowEvent(TraceRecorder::FlowPhase::kStart, 42, 10);
  recorder.FlowEvent(TraceRecorder::FlowPhase::kStep, 42, 20);
  recorder.FlowEvent(TraceRecorder::FlowPhase::kEnd, 42, 30);
  const std::string json = recorder.ToJson();
  EXPECT_TRUE(JsonChecker(json).Valid()) << json;
  EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
  // Perfetto matches flows by (cat, name, id); the end event binds to
  // its enclosing slice.
  EXPECT_NE(json.find("\"cat\": \"req\""), std::string::npos);
  EXPECT_NE(json.find("\"id\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"bp\": \"e\""), std::string::npos);
}

TEST(TraceRecorderTest, DroppedEventsSurfaceAsAMetricCounter) {
  Registry registry;
  TraceRecorder recorder(2);
  recorder.AttachMetrics(&registry);
  for (int i = 0; i < 5; ++i) {
    recorder.CompleteEvent("e", static_cast<uint64_t>(i), 1, {});
  }
  EXPECT_EQ(recorder.dropped(), 3u);
  EXPECT_EQ(
      registry.GetCounter("karl_trace_dropped_events_total")->value(), 3u);
}

TEST(RequestTracerTest, SpanLandsAtItsMonotonicBeginStamp) {
  // Built before anything else reads the clock, as karl_server builds
  // its recorder; request stamps and trace timestamps are one clock, so
  // the span's ts is its begin stamp, not 0 or a shifted copy.
  TraceRecorder recorder;
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  const RequestTracer tracer(&recorder);
  const uint64_t begin_us = MonotonicMicros();
  const uint64_t end_us = MonotonicMicros();
  tracer.Span("req/test", begin_us, end_us);
  ASSERT_EQ(recorder.size(), 1u);
  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"ts\": " + std::to_string(begin_us) + ","),
            std::string::npos)
      << "begin_us=" << begin_us << " " << json;
}

TEST(RequestContextTest, StageDurationsSaturateAndChain) {
  RequestContext ctx;
  ctx.read_begin_us = 100;
  ctx.framed_us = 110;
  ctx.admitted_us = 115;
  ctx.dispatched_us = 140;
  ctx.eval_begin_us = 150;
  ctx.eval_end_us = 250;
  ctx.serialized_us = 260;
  ctx.write_begin_us = 270;
  ctx.write_end_us = 300;
  EXPECT_EQ(ctx.read_us(), 10u);
  EXPECT_EQ(ctx.parse_us(), 5u);
  EXPECT_EQ(ctx.queue_wait_us(), 25u);
  EXPECT_EQ(ctx.coalesce_wait_us(), 10u);
  EXPECT_EQ(ctx.eval_us(), 100u);
  EXPECT_EQ(ctx.serialize_us(), 10u);
  EXPECT_EQ(ctx.write_us(), 30u);
  EXPECT_EQ(ctx.total_us(), 200u);
  // Unset (zero) or inverted stamps saturate to zero instead of
  // wrapping to huge unsigned values.
  RequestContext empty;
  EXPECT_EQ(empty.read_us(), 0u);
  EXPECT_EQ(empty.total_us(), 0u);
  empty.eval_begin_us = 50;
  empty.eval_end_us = 40;
  EXPECT_EQ(empty.eval_us(), 0u);
}

TEST(RequestContextTest, NextRequestIdIsMonotonicAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 500;
  std::vector<std::vector<uint64_t>> ids(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&ids, t] {
      ids[t].reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) ids[t].push_back(NextRequestId());
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<uint64_t> all;
  for (const auto& chunk : ids) {
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end())
      << "request ids must be unique";
}

TEST(FlightRecorderTest, RingEvictsOldestAndSnapshotsInOrder) {
  FlightRecorder recorder(3);
  EXPECT_EQ(recorder.capacity(), 3u);
  for (uint64_t i = 1; i <= 5; ++i) {
    RequestRecord record;
    record.ctx.id = i;
    record.kind = "exact";
    record.rows = i;
    recorder.Record(std::move(record));
  }
  const std::vector<RequestRecord> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 3u);  // Oldest two were evicted.
  EXPECT_EQ(snapshot[0].ctx.id, 3u);
  EXPECT_EQ(snapshot[1].ctx.id, 4u);
  EXPECT_EQ(snapshot[2].ctx.id, 5u);
}

TEST(FlightRecorderTest, PartialRingSnapshotsWhatExists) {
  FlightRecorder recorder(8);
  RequestRecord record;
  record.ctx.id = 7;
  record.client_id = "only";
  recorder.Record(std::move(record));
  const std::vector<RequestRecord> snapshot = recorder.Snapshot();
  ASSERT_EQ(snapshot.size(), 1u);
  EXPECT_EQ(snapshot[0].ctx.id, 7u);
  EXPECT_EQ(snapshot[0].client_id, "only");
}

TEST(FlightRecorderTest, ZeroCapacityIsClampedToOne) {
  FlightRecorder recorder(0);
  EXPECT_EQ(recorder.capacity(), 1u);
  RequestRecord record;
  record.ctx.id = 1;
  recorder.Record(std::move(record));
  EXPECT_EQ(recorder.Snapshot().size(), 1u);
}

TEST(RollingHistogramTest, EmptyHistogramReportsZeroEverywhere) {
  RollingHistogram h;
  EXPECT_EQ(h.count(), 0u);
  const HistogramSnapshot cumulative = h.CumulativeSnapshot();
  EXPECT_EQ(cumulative.count, 0u);
  EXPECT_EQ(cumulative.min, 0.0);
  EXPECT_EQ(cumulative.max, 0.0);
  const HistogramSnapshot window = h.WindowSnapshotAt(0);
  EXPECT_EQ(window.count, 0u);
  EXPECT_EQ(window.min, 0.0);
  EXPECT_EQ(window.max, 0.0);
  EXPECT_EQ(window.Quantile(0.95), 0.0);
}

TEST(RollingHistogramTest, WindowSpanIsSixtySeconds) {
  EXPECT_EQ(RollingHistogram::WindowSpanSeconds(), 60u);
}

TEST(RollingHistogramTest, RecordLandsInBothViews) {
  RollingHistogram h;
  h.Record(25.0);  // Wall clock: just recorded, so still in-window.
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.CumulativeSnapshot().count, 1u);
  const HistogramSnapshot window = h.WindowSnapshot();
  EXPECT_EQ(window.count, 1u);
  EXPECT_EQ(window.min, 25.0);
  EXPECT_EQ(window.max, 25.0);
}

TEST(RollingHistogramTest, OldRecordsAgeOutOfWindowButNotCumulative) {
  RollingHistogram h;
  const uint64_t t0 = 1000 * RollingHistogram::kSubWindowUs;
  h.RecordAt(10.0, t0);
  h.RecordAt(20.0, t0 + 1);

  HistogramSnapshot window = h.WindowSnapshotAt(t0 + 2);
  EXPECT_EQ(window.count, 2u);
  EXPECT_EQ(window.min, 10.0);
  EXPECT_EQ(window.max, 20.0);
  EXPECT_NEAR(window.sum, 30.0, 1e-12);

  // One full window later the records are outside the merge horizon.
  const uint64_t later =
      t0 + RollingHistogram::kMergedSubWindows * RollingHistogram::kSubWindowUs;
  window = h.WindowSnapshotAt(later);
  EXPECT_EQ(window.count, 0u);

  // The cumulative view never forgets.
  const HistogramSnapshot cumulative = h.CumulativeSnapshot();
  EXPECT_EQ(cumulative.count, 2u);
  EXPECT_EQ(cumulative.min, 10.0);
  EXPECT_EQ(cumulative.max, 20.0);
}

TEST(RollingHistogramTest, WindowMergesAdjacentSubWindows) {
  RollingHistogram h;
  const uint64_t t0 = 50 * RollingHistogram::kSubWindowUs;
  // One sample per sub-window across a full merge horizon.
  for (int i = 0; i < RollingHistogram::kMergedSubWindows; ++i) {
    h.RecordAt(static_cast<double>(i + 1),
               t0 + static_cast<uint64_t>(i) * RollingHistogram::kSubWindowUs);
  }
  const uint64_t end =
      t0 + static_cast<uint64_t>(RollingHistogram::kMergedSubWindows - 1) *
               RollingHistogram::kSubWindowUs;
  HistogramSnapshot window = h.WindowSnapshotAt(end);
  EXPECT_EQ(window.count,
            static_cast<uint64_t>(RollingHistogram::kMergedSubWindows));
  EXPECT_EQ(window.min, 1.0);
  EXPECT_EQ(window.max, 6.0);

  // Advance one sub-window: the oldest sample falls out, the rest stay.
  window = h.WindowSnapshotAt(end + RollingHistogram::kSubWindowUs);
  EXPECT_EQ(window.count,
            static_cast<uint64_t>(RollingHistogram::kMergedSubWindows - 1));
  EXPECT_EQ(window.min, 2.0);
  EXPECT_EQ(window.max, 6.0);
}

TEST(RollingHistogramTest, WheelSlotReuseClearsStaleCounts) {
  RollingHistogram h;
  const uint64_t t0 = 7 * RollingHistogram::kSubWindowUs;
  h.RecordAt(5.0, t0);
  // kWheelSlots epochs later the same physical slot is recycled; the
  // stale epoch-7 contents must not leak into the new window.
  const uint64_t t1 =
      t0 + RollingHistogram::kWheelSlots * RollingHistogram::kSubWindowUs;
  h.RecordAt(9.0, t1);
  const HistogramSnapshot window = h.WindowSnapshotAt(t1);
  EXPECT_EQ(window.count, 1u);
  EXPECT_EQ(window.min, 9.0);
  EXPECT_EQ(window.max, 9.0);
  EXPECT_EQ(h.CumulativeSnapshot().count, 2u);
}

TEST(RollingHistogramTest, WindowQuantilesTrackRecentValuesOnly) {
  RollingHistogram h;
  const uint64_t t0 = 200 * RollingHistogram::kSubWindowUs;
  // An old regime of slow samples...
  for (int i = 0; i < 100; ++i) h.RecordAt(10000.0, t0);
  // ...then, ten sub-windows later, a fast regime.
  const uint64_t t1 = t0 + 10 * RollingHistogram::kSubWindowUs;
  for (int i = 0; i < 100; ++i) h.RecordAt(10.0, t1);

  const HistogramSnapshot window = h.WindowSnapshotAt(t1);
  EXPECT_EQ(window.count, 100u);
  EXPECT_LT(window.Quantile(0.99), 100.0);  // Only the fast regime.
  // The cumulative p50 straddles both regimes' total mass.
  const HistogramSnapshot cumulative = h.CumulativeSnapshot();
  EXPECT_EQ(cumulative.count, 200u);
  EXPECT_GT(cumulative.Quantile(0.99), 1000.0);
}

TEST(RollingHistogramTest, ConcurrentRecordsKeepCumulativeExact) {
  RollingHistogram h;
  constexpr int kThreads = 4;
  constexpr int kEpochs = 32;
  constexpr int kPerEpoch = 50;
  std::vector<std::thread> threads;
  // All threads walk the same epoch sequence, racing on rotation. The
  // windowed view tolerates perturbation (documented race); the
  // cumulative count must stay exact.
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t e = 0; e < kEpochs; ++e) {
        for (int i = 0; i < kPerEpoch; ++i) {
          h.RecordAt(3.0, e * RollingHistogram::kSubWindowUs +
                              static_cast<uint64_t>(i));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(h.count(),
            static_cast<uint64_t>(kThreads) * kEpochs * kPerEpoch);
  EXPECT_EQ(h.CumulativeSnapshot().count, h.count());
}

TEST(RegistryTest, RollingHistogramExposition) {
  Registry registry;
  RollingHistogram* h = registry.GetRollingHistogram("karl_test_stage_us");
  EXPECT_EQ(h, registry.GetRollingHistogram("karl_test_stage_us"));
  h->Record(42.0);
  h->Record(84.0);

  const RegistrySnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.rolling.size(), 1u);
  EXPECT_EQ(snapshot.rolling[0].first, "karl_test_stage_us");
  EXPECT_EQ(snapshot.rolling[0].second.cumulative.count, 2u);
  EXPECT_EQ(snapshot.rolling[0].second.window_span_s, 60u);

  const std::string text = DumpText(registry);
  // Cumulative summary under the bare name...
  EXPECT_NE(text.find("karl_test_stage_us{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("karl_test_stage_us_count 2"), std::string::npos);
  // ...plus the windowed twin.
  EXPECT_NE(text.find("karl_test_stage_us_window60s{quantile=\"0.95\"}"),
            std::string::npos);
  EXPECT_NE(text.find("karl_test_stage_us_window60s_count"),
            std::string::npos);
}

TEST(GlobalRegistryTest, IsASingleton) {
  EXPECT_EQ(&GlobalRegistry(), &GlobalRegistry());
}

// ------------------------------------------------------------ labels

TEST(LabelSetTest, RendersSortedAndEscaped) {
  LabelSet labels{{"op", "query"}, {"model", "home\"1\""}};
  EXPECT_EQ(labels.Render(), "{model=\"home\\\"1\\\"\",op=\"query\"}");
  EXPECT_EQ(LabelSet{}.Render(), "");
  LabelSet tricky{{"path", "a\\b"}, {"note", "line\nbreak"}};
  EXPECT_EQ(tricky.Render(),
            "{note=\"line\\nbreak\",path=\"a\\\\b\"}");
}

TEST(LabelSetTest, SetInsertsInSortedOrder) {
  LabelSet labels{{"model", "m"}};
  labels.Set("window", "fast").Set("slo", "latency");
  EXPECT_EQ(labels.Render(),
            "{model=\"m\",slo=\"latency\",window=\"fast\"}");
}

TEST(LabelSetTest, OverflowReplacesEveryValue) {
  const LabelSet labels{{"model", "m"}, {"op", "query"}};
  EXPECT_EQ(labels.Overflow().Render(),
            "{model=\"__other__\",op=\"__other__\"}");
}

TEST(LabelSetTest, SeriesNameSurgeryBindsSuffixesBeforeTheLabelBlock) {
  const SeriesNameParts parts =
      SplitSeriesName("karl_x_us{model=\"a\"}");
  EXPECT_EQ(parts.base, "karl_x_us");
  EXPECT_EQ(parts.labels, "{model=\"a\"}");
  EXPECT_EQ(SeriesWithSuffix("karl_x_us{model=\"a\"}", "_sum"),
            "karl_x_us_sum{model=\"a\"}");
  EXPECT_EQ(SeriesWithSuffix("karl_x_us", "_sum"), "karl_x_us_sum");
  EXPECT_EQ(SeriesWithLabel("karl_x_us{model=\"a\"}", "quantile", "0.5"),
            "karl_x_us{model=\"a\",quantile=\"0.5\"}");
  EXPECT_EQ(SeriesWithLabel("karl_x_us", "quantile", "0.5"),
            "karl_x_us{quantile=\"0.5\"}");
}

TEST(RegistryLabelsTest, LabeledSeriesAreDistinctAndInterned) {
  Registry registry;
  Counter* plain = registry.GetCounter("karl_l_total");
  Counter* alpha =
      registry.GetCounter("karl_l_total", LabelSet{{"model", "alpha"}});
  Counter* beta =
      registry.GetCounter("karl_l_total", LabelSet{{"model", "beta"}});
  EXPECT_NE(plain, alpha);
  EXPECT_NE(alpha, beta);
  EXPECT_EQ(alpha,
            registry.GetCounter("karl_l_total", LabelSet{{"model", "alpha"}}));
  alpha->Add(2);
  beta->Increment();
  plain->Add(3);
  const std::string text = DumpText(registry);
  EXPECT_NE(text.find("karl_l_total 3"), std::string::npos) << text;
  EXPECT_NE(text.find("karl_l_total{model=\"alpha\"} 2"), std::string::npos)
      << text;
  EXPECT_NE(text.find("karl_l_total{model=\"beta\"} 1"), std::string::npos)
      << text;
  // One family, one TYPE declaration.
  size_t type_lines = 0;
  size_t pos = 0;
  while ((pos = text.find("# TYPE karl_l_total counter", pos)) !=
         std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST(RegistryLabelsTest, CardinalityCapRedirectsToOtherAndCounts) {
  Registry registry;
  std::vector<Counter*> admitted;
  for (size_t i = 0; i < Registry::kMaxSeriesPerMetric; ++i) {
    admitted.push_back(registry.GetCounter(
        "karl_cap_total", LabelSet{{"m", "s" + std::to_string(i)}}));
  }
  // The label set one past the cap collapses into the sink series.
  Counter* past = registry.GetCounter("karl_cap_total",
                                      LabelSet{{"m", "past"}});
  Counter* other = registry.GetCounter("karl_cap_total",
                                       LabelSet{{"m", "__other__"}});
  std::sort(admitted.begin(), admitted.end());
  EXPECT_EQ(std::unique(admitted.begin(), admitted.end()), admitted.end());
  EXPECT_EQ(std::find(admitted.begin(), admitted.end(), other),
            admitted.end());
  EXPECT_EQ(past, other);
  // Established series stay reachable after the cap is hit.
  Counter* first =
      registry.GetCounter("karl_cap_total", LabelSet{{"m", "s0"}});
  EXPECT_NE(first, other);
  EXPECT_NE(std::find(admitted.begin(), admitted.end(), first),
            admitted.end());
  EXPECT_EQ(
      registry.GetCounter("karl_metric_series_dropped_total")->value(), 1u);
  past->Increment();
  past->Increment();
  const std::string text = DumpText(registry);
  EXPECT_NE(text.find("karl_cap_total{m=\"__other__\"} 2"),
            std::string::npos)
      << text;
}

TEST(RegistryLabelsTest, LabeledRollingHistogramExposition) {
  Registry registry;
  RollingHistogram* h = registry.GetRollingHistogram(
      "karl_lab_us", LabelSet{{"model", "alpha"}});
  h->Record(42.0);
  registry.GetRollingHistogram("karl_lab_us")->Record(7.0);

  const std::string text = DumpText(registry);
  // Quantile merges into the existing label block; _sum/_count and the
  // window suffix bind to the name before it.
  EXPECT_NE(text.find("karl_lab_us{model=\"alpha\",quantile=\"0.5\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("karl_lab_us_count{model=\"alpha\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("karl_lab_us_window60s{model=\"alpha\",quantile=\"0.95\"}"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("karl_lab_us_window60s_count{model=\"alpha\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("karl_lab_us_count 1"), std::string::npos) << text;
  // One TYPE line for the whole family, before any of its samples.
  size_t type_lines = 0;
  size_t pos = 0;
  while ((pos = text.find("# TYPE karl_lab_us summary", pos)) !=
         std::string::npos) {
    ++type_lines;
    pos += 1;
  }
  EXPECT_EQ(type_lines, 1u);
}

TEST(RegistryLabelsTest, ConcurrentLabeledRecordsSurviveSeriesChurn) {
  // The hot-reload shape: worker threads hammer established labeled
  // handles while another thread keeps interning fresh labeled series
  // (what a reload's per-model re-resolution does) and scraping. The
  // established series' cumulative counts must stay exact.
  Registry registry;
  constexpr int kWriters = 4;
  constexpr int kRecords = 2000;
  RollingHistogram* histograms[kWriters];
  for (int t = 0; t < kWriters; ++t) {
    histograms[t] = registry.GetRollingHistogram(
        "karl_churn_us", LabelSet{{"model", "model" + std::to_string(t)}});
  }
  std::atomic<bool> stop{false};
  std::thread churn([&registry, &stop] {
    int generation = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      registry.GetRollingHistogram(
          "karl_churn_us",
          LabelSet{{"model", "gen" + std::to_string(generation++ % 50)}});
      registry.GetCounter("karl_churn_reloads_total")->Increment();
      const std::string text = DumpText(registry);
      ASSERT_FALSE(text.empty());
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([h = histograms[t]] {
      for (int i = 0; i < kRecords; ++i) h->Record(1.0 + i);
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  churn.join();
  for (int t = 0; t < kWriters; ++t) {
    EXPECT_EQ(histograms[t]->count(), static_cast<uint64_t>(kRecords));
  }
}

}  // namespace
}  // namespace karl::telemetry
