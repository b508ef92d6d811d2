// Flight recorder: a bounded ring buffer of the last N completed
// requests, kept so "what just happened?" is answerable on a live
// server without tracing enabled — the serving stack's black box.
//
// Recording is lock-cheap (one short mutex hold over a preallocated
// ring slot; no allocation beyond the record's small strings) and
// always on: every admitted request lands here exactly once when its
// response is written (or its connection is found gone). Snapshots are
// taken off the hot path by the admin plane's /flightz page.

#ifndef KARL_TELEMETRY_FLIGHT_RECORDER_H_
#define KARL_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "telemetry/context.h"
#include "util/mutex.h"

namespace karl::telemetry {

/// One completed request, as remembered by the flight recorder.
struct RequestRecord {
  RequestContext ctx;     ///< Id, stage stamps, and engine work.
  std::string kind;       ///< "tkaq" / "ekaq" / "exact".
  bool batch = false;     ///< op=batch (vs a coalesced single).
  uint64_t rows = 0;      ///< Query rows in the request.
  std::string model;      ///< Resolved model served ("" pre-registry).
  std::string peer;       ///< Client address ("" when already gone).
  std::string client_id;  ///< Echoed request "id" token ("" = none).
  bool ok = true;         ///< False when the answer was never written.
};

/// See file comment.
class FlightRecorder {
 public:
  /// `capacity`: number of requests retained (clamped to at least 1).
  explicit FlightRecorder(size_t capacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Remembers one completed request, evicting the oldest when full.
  void Record(RequestRecord record);

  /// The retained records, oldest first.
  std::vector<RequestRecord> Snapshot() const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable util::Mutex mu_;
  std::vector<RequestRecord> ring_ KARL_GUARDED_BY(mu_);
  // Ring write cursor.
  size_t next_ KARL_GUARDED_BY(mu_) = 0;
};

}  // namespace karl::telemetry

#endif  // KARL_TELEMETRY_FLIGHT_RECORDER_H_
