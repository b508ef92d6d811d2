#include "telemetry/context.h"

#include <atomic>
#include <chrono>

namespace karl::telemetry {

namespace {

std::chrono::steady_clock::time_point ProcessEpoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

}  // namespace

uint64_t MonotonicMicros() {
  // +1 keeps 0 reserved as RequestContext's "stage never reached"
  // sentinel: the very first call in the process (which fixes the
  // epoch) would otherwise legitimately return 0.
  return static_cast<uint64_t>(
             std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - ProcessEpoch())
                 .count()) +
         1;
}

uint64_t NextRequestId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void RequestTracer::Span(const char* name, uint64_t begin_us, uint64_t end_us,
                         TraceArgs args) const {
  if (recorder_ == nullptr || begin_us == 0 || end_us < begin_us) return;
  recorder_->CompleteEvent(name, begin_us, end_us - begin_us, std::move(args));
}

void RequestTracer::FlowBegin(uint64_t request_id, uint64_t ts_us) const {
  if (recorder_ == nullptr) return;
  recorder_->FlowEvent(TraceRecorder::FlowPhase::kStart, request_id, ts_us);
}

void RequestTracer::FlowStep(uint64_t request_id, uint64_t ts_us) const {
  if (recorder_ == nullptr) return;
  recorder_->FlowEvent(TraceRecorder::FlowPhase::kStep, request_id, ts_us);
}

void RequestTracer::FlowEnd(uint64_t request_id, uint64_t ts_us) const {
  if (recorder_ == nullptr) return;
  recorder_->FlowEvent(TraceRecorder::FlowPhase::kEnd, request_id, ts_us);
}

}  // namespace karl::telemetry
