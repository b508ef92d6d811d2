// Per-query trace recorder producing Chrome trace-event JSON ("trace
// event format"), loadable in Perfetto (ui.perfetto.dev) or
// chrome://tracing.
//
// The engines emit two event shapes:
//   - complete events ("ph":"X"): one span per query or build, with
//     duration and summary args (iterations, kernel evals, result);
//   - counter events ("ph":"C"): per-refinement-iteration tracks of
//     lb / ub / gap and cumulative node expansions / kernel evals,
//     rendered by Perfetto as stacked counter tracks.
// The serving stack adds flow events ("ph":"s"/"t"/"f" under category
// "req", keyed by the request id): emitted inside the per-stage spans
// of one request on each thread it crosses, they make Perfetto draw a
// connected arrow lane per request across the epoll loop, the
// coalescer dispatcher, and the pool workers (telemetry/context.h).
//
// The recorder is thread-safe (one mutex around an event vector; threads
// are mapped to stable small tids) and bounded: past `max_events` new
// events are counted as dropped instead of stored, so an accidental
// trace of a huge run degrades instead of exhausting memory. Timestamps
// are telemetry::MonotonicMicros() values (telemetry/context.h), the one
// clock the serving stack stamps requests with, so engine spans and
// request spans share a time axis.

#ifndef KARL_TELEMETRY_TRACE_H_
#define KARL_TELEMETRY_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"

namespace karl::telemetry {

class Counter;
class Registry;

/// Key/value payload attached to a trace event; values are numbers.
using TraceArgs = std::vector<std::pair<std::string, double>>;

/// Bounded, thread-safe Chrome-trace-event collector.
class TraceRecorder {
 public:
  /// `max_events`: hard cap on stored events; later events are dropped
  /// (and counted) rather than stored.
  explicit TraceRecorder(size_t max_events = 1u << 20);

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Adds a complete ("X") event covering [ts_us, ts_us + dur_us].
  void CompleteEvent(std::string name, uint64_t ts_us, uint64_t dur_us,
                     TraceArgs args);

  /// Adds a counter ("C") event; each arg becomes one counter series.
  void CounterEvent(std::string name, uint64_t ts_us, TraceArgs args);

  /// Flow-event phases: start ("s"), step ("t"), end ("f").
  enum class FlowPhase { kStart, kStep, kEnd };

  /// Adds one flow event of the "req" flow keyed by `flow_id`. Flow
  /// events bind to the slice enclosing `ts_us` on the calling thread,
  /// so emit them inside the span they should attach to; matching
  /// start/step/end events with one id render as arrows in Perfetto.
  void FlowEvent(FlowPhase phase, uint64_t flow_id, uint64_t ts_us);

  /// Exports the dropped-event count as the
  /// `karl_trace_dropped_events_total` counter in `registry` (incremented
  /// as drops happen, so truncated traces are visible in metrics too, not
  /// only in the trace file).
  /// Call before recording begins; null detaches.
  void AttachMetrics(Registry* registry);

  /// Events stored so far.
  size_t size() const;

  /// Events rejected because the cap was reached.
  size_t dropped() const;

  /// Renders {"traceEvents":[...]} JSON. Always syntactically valid.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  util::Status WriteJson(const std::string& path) const;

 private:
  struct Event {
    std::string name;
    char phase = 'X';
    uint64_t ts_us = 0;
    uint64_t dur_us = 0;   // Complete events only.
    uint64_t flow_id = 0;  // Flow events only.
    int tid = 0;
    TraceArgs args;
  };

  void Add(Event event);
  // Stable small id for the calling thread.
  int TidLocked() KARL_REQUIRES(mu_);

  const size_t max_events_;
  mutable util::Mutex mu_;
  std::vector<Event> events_ KARL_GUARDED_BY(mu_);
  size_t dropped_ KARL_GUARDED_BY(mu_) = 0;
  std::map<std::thread::id, int> tids_ KARL_GUARDED_BY(mu_);
  Counter* dropped_counter_ = nullptr;  // See AttachMetrics.
};

}  // namespace karl::telemetry

#endif  // KARL_TELEMETRY_TRACE_H_
