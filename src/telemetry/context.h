// Request-scoped observability context for the serving stack.
//
// A query that arrives over the network crosses three kinds of threads
// (epoll event loop -> coalescer dispatcher -> pool workers -> event
// loop again), and none of them may share mutable state beyond the two
// existing hand-offs. RequestContext is the small value that rides the
// request through those hand-offs: a process-unique monotonic id plus
// one timestamp per pipeline stage, all on a single shared steady-clock
// epoch (MonotonicMicros) so durations computed on different threads
// are directly comparable.
//
// Stage model (durations derived from consecutive stamps):
//   read          first byte buffered -> request line framed
//   parse         line framed -> parsed/validated/admitted
//   queue_wait    admitted -> popped by the coalescer dispatcher
//   coalesce_wait popped -> group evaluation begins (sweep + merge)
//   eval          group evaluation (BatchEvaluator over the pool)
//   serialize     evaluation done -> response line built
//   write         completion reaches the event loop -> bytes flushed
// The sum of the stages equals the server-observed latency up to
// scheduling slack (the eventfd doorbell / epoll wake gaps).
//
// RequestTracer renders the same context into the Chrome trace-event
// domain: per-stage complete spans on the thread that ran the stage,
// connected per request by flow events ("ph":"s"/"t"/"f" with the
// request id), so Perfetto draws one arrowed lane per request across
// the epoll thread, the dispatcher, and whichever worker evaluated it.
// All members are null-safe no-ops when no TraceRecorder is attached.

#ifndef KARL_TELEMETRY_CONTEXT_H_
#define KARL_TELEMETRY_CONTEXT_H_

#include <cstdint>
#include <string>

#include "telemetry/trace.h"

namespace karl::telemetry {

/// Microseconds since a process-wide steady-clock epoch (fixed at the
/// first call). The timestamp domain of RequestContext stamps and of
/// every TraceRecorder event; safe from any thread.
uint64_t MonotonicMicros();

/// Next value of the process-wide monotonic request id (starts at 1).
uint64_t NextRequestId();

/// Engine work attributable to one request (the EvalStats counters,
/// mirrored here so telemetry stays independent of core/).
struct RequestStats {
  uint64_t iterations = 0;
  uint64_t nodes_expanded = 0;
  uint64_t kernel_evals = 0;
};

/// Per-request pipeline stamps; see file comment for the stage model.
/// All timestamps are MonotonicMicros values; 0 means "stage never
/// reached" (e.g. a request whose connection vanished before write).
struct RequestContext {
  uint64_t id = 0;             ///< Process-unique monotonic request id.
  uint64_t read_begin_us = 0;  ///< First byte of the line buffered.
  uint64_t framed_us = 0;      ///< Full request line framed.
  uint64_t admitted_us = 0;    ///< Parsed, validated, and enqueued.
  uint64_t dispatched_us = 0;  ///< Popped into a dispatch group.
  uint64_t eval_begin_us = 0;  ///< Group evaluation started.
  uint64_t eval_end_us = 0;    ///< Group evaluation finished.
  uint64_t serialized_us = 0;  ///< Response line built.
  uint64_t write_begin_us = 0; ///< Completion reached the event loop.
  uint64_t write_end_us = 0;   ///< Response bytes handed to the socket.
  RequestStats stats;          ///< Engine work for this request's rows.

  /// Saturating stage durations in microseconds.
  uint64_t read_us() const { return Delta(read_begin_us, framed_us); }
  uint64_t parse_us() const { return Delta(framed_us, admitted_us); }
  uint64_t queue_wait_us() const {
    return Delta(admitted_us, dispatched_us);
  }
  uint64_t coalesce_wait_us() const {
    return Delta(dispatched_us, eval_begin_us);
  }
  uint64_t eval_us() const { return Delta(eval_begin_us, eval_end_us); }
  uint64_t serialize_us() const {
    return Delta(eval_end_us, serialized_us);
  }
  uint64_t write_us() const { return Delta(write_begin_us, write_end_us); }
  /// End-to-end server-observed latency (first byte -> flushed).
  uint64_t total_us() const { return Delta(read_begin_us, write_end_us); }

 private:
  static uint64_t Delta(uint64_t begin, uint64_t end) {
    return (begin != 0 && end > begin) ? end - begin : 0;
  }
};

/// Emits request-scoped spans and flow events into a TraceRecorder,
/// whose timestamps are MonotonicMicros values too, so stamps pass
/// through unchanged. Copyable, cheap, and a complete no-op when
/// constructed with a null recorder — call sites never branch on
/// "tracing enabled".
class RequestTracer {
 public:
  RequestTracer() = default;
  explicit RequestTracer(TraceRecorder* recorder) : recorder_(recorder) {}

  bool enabled() const { return recorder_ != nullptr; }

  /// Complete span [begin_us, end_us] (MonotonicMicros domain) on the
  /// calling thread.
  void Span(const char* name, uint64_t begin_us, uint64_t end_us,
            TraceArgs args = {}) const;

  /// Flow start ("ph":"s") — emit inside the request's first span.
  void FlowBegin(uint64_t request_id, uint64_t ts_us) const;

  /// Flow step ("ph":"t") — emit inside an intermediate span.
  void FlowStep(uint64_t request_id, uint64_t ts_us) const;

  /// Flow end ("ph":"f", binding to the enclosing slice) — emit inside
  /// the request's final span.
  void FlowEnd(uint64_t request_id, uint64_t ts_us) const;

 private:
  TraceRecorder* recorder_ = nullptr;
};

}  // namespace karl::telemetry

#endif  // KARL_TELEMETRY_CONTEXT_H_
