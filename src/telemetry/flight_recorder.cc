#include "telemetry/flight_recorder.h"

#include <algorithm>
#include <utility>

namespace karl::telemetry {

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(std::max<size_t>(1, capacity)) {
  ring_.reserve(capacity_);
}

void FlightRecorder::Record(RequestRecord record) {
  const util::MutexLock lock(&mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(record));
  } else {
    ring_[next_] = std::move(record);
  }
  next_ = (next_ + 1) % capacity_;
}

std::vector<RequestRecord> FlightRecorder::Snapshot() const {
  const util::MutexLock lock(&mu_);
  std::vector<RequestRecord> out;
  out.reserve(ring_.size());
  // Oldest first: when the ring has wrapped, next_ points at the oldest
  // slot; before wrapping, the ring is already in arrival order.
  const size_t start = ring_.size() < capacity_ ? 0 : next_;
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

}  // namespace karl::telemetry
