#include "telemetry/trace.h"

#include <cstdio>
#include <fstream>

#include "telemetry/metrics.h"
#include "util/json_text.h"

namespace karl::telemetry {

TraceRecorder::TraceRecorder(size_t max_events) : max_events_(max_events) {}

void TraceRecorder::Add(Event event) {
  const util::MutexLock lock(&mu_);
  if (events_.size() >= max_events_) {
    ++dropped_;
    if (dropped_counter_ != nullptr) dropped_counter_->Increment();
    return;
  }
  event.tid = TidLocked();
  events_.push_back(std::move(event));
}

void TraceRecorder::AttachMetrics(Registry* registry) {
  const util::MutexLock lock(&mu_);
  dropped_counter_ =
      registry != nullptr
          ? registry->GetCounter("karl_trace_dropped_events_total")
          : nullptr;
}

int TraceRecorder::TidLocked() {
  const auto [it, inserted] =
      tids_.emplace(std::this_thread::get_id(),
                    static_cast<int>(tids_.size()) + 1);
  return it->second;
}

void TraceRecorder::CompleteEvent(std::string name, uint64_t ts_us,
                                  uint64_t dur_us, TraceArgs args) {
  Event event;
  event.name = std::move(name);
  event.phase = 'X';
  event.ts_us = ts_us;
  event.dur_us = dur_us;
  event.args = std::move(args);
  Add(std::move(event));
}

void TraceRecorder::CounterEvent(std::string name, uint64_t ts_us,
                                 TraceArgs args) {
  Event event;
  event.name = std::move(name);
  event.phase = 'C';
  event.ts_us = ts_us;
  event.args = std::move(args);
  Add(std::move(event));
}

void TraceRecorder::FlowEvent(FlowPhase phase, uint64_t flow_id,
                              uint64_t ts_us) {
  Event event;
  event.name = "req";
  switch (phase) {
    case FlowPhase::kStart:
      event.phase = 's';
      break;
    case FlowPhase::kStep:
      event.phase = 't';
      break;
    case FlowPhase::kEnd:
      event.phase = 'f';
      break;
  }
  event.ts_us = ts_us;
  event.flow_id = flow_id;
  Add(std::move(event));
}

size_t TraceRecorder::size() const {
  const util::MutexLock lock(&mu_);
  return events_.size();
}

size_t TraceRecorder::dropped() const {
  const util::MutexLock lock(&mu_);
  return dropped_;
}

std::string TraceRecorder::ToJson() const {
  const util::MutexLock lock(&mu_);
  std::string out = "{\"traceEvents\": [";
  char buffer[96];
  bool first = true;
  for (const Event& event : events_) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  {\"name\": \"";
    util::AppendJsonEscaped(&out, event.name);
    std::snprintf(buffer, sizeof(buffer),
                  "\", \"ph\": \"%c\", \"ts\": %llu, \"pid\": 1, "
                  "\"tid\": %d",
                  event.phase,
                  static_cast<unsigned long long>(event.ts_us), event.tid);
    out += buffer;
    if (event.phase == 'X') {
      std::snprintf(buffer, sizeof(buffer), ", \"dur\": %llu",
                    static_cast<unsigned long long>(event.dur_us));
      out += buffer;
    }
    if (event.phase == 's' || event.phase == 't' || event.phase == 'f') {
      // Flow events carry the flow id and a category (flows are matched
      // by (cat, name, id)); the end event binds to its enclosing slice.
      std::snprintf(buffer, sizeof(buffer),
                    ", \"cat\": \"req\", \"id\": %llu",
                    static_cast<unsigned long long>(event.flow_id));
      out += buffer;
      if (event.phase == 'f') out += ", \"bp\": \"e\"";
    }
    if (!event.args.empty()) {
      out += ", \"args\": {";
      bool first_arg = true;
      for (const auto& [key, value] : event.args) {
        if (!first_arg) out += ", ";
        first_arg = false;
        out += "\"";
        util::AppendJsonEscaped(&out, key);
        out += "\": ";
        util::AppendJsonNumber(&out, value);
      }
      out += "}";
    }
    out += "}";
  }
  out += first ? "],\n" : "\n],\n";
  std::snprintf(buffer, sizeof(buffer),
                "\"displayTimeUnit\": \"ms\", \"droppedEvents\": %llu}\n",
                static_cast<unsigned long long>(dropped_));
  out += buffer;
  return out;
}

util::Status TraceRecorder::WriteJson(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return util::Status::IOError("cannot open trace file '" + path + "'");
  }
  const std::string body = ToJson();
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
  out.flush();
  if (!out) {
    return util::Status::IOError("failed writing trace file '" + path + "'");
  }
  return util::Status::OK();
}

}  // namespace karl::telemetry
