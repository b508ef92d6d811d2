// Spans for the traced run. A span has a name, a start, an end, the span
// that caused it, and the id of the request it belongs to (0 for layer
// probes). Spans live in memory and are written out once, at exit, with
// each name's total and self time (duration minus the part of it that
// child spans cover).
//
// A disabled tracer records nothing, so untraced runs pay one branch per
// would-be span.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  /// Span id meaning "no parent" / "not recorded".
  static constexpr uint32_t kNone = 0;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; `name` must be a string literal (stored by pointer).
  uint32_t Begin(const char* name, uint32_t parent = kNone);
  void End(uint32_t span);

  /// Records a finished span with explicit times (ns, steady clock).
  uint32_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint32_t parent = kNone, uint64_t request = 0);

  /// Writes every span as NDJSON, then one summary line per span name
  /// with its count, total and self time. `header` (a JSON object) is
  /// written first. Returns false if the file cannot be written.
  bool Write(const std::string& path, const std::string& header) const;

  /// RAII span.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, uint32_t parent = kNone)
        : tracer_(tracer), id_(tracer.Begin(name, parent)) {}
    ~Scope() { tracer_.End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    uint32_t id() const { return id_; }

   private:
    Tracer& tracer_;
    uint32_t id_;
  };

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    uint64_t request;
    uint64_t start_ns;
    uint64_t end_ns;
  };
  // Bounds memory: past this many spans, new ones are counted, not kept.
  static constexpr size_t kMaxSpans = 1u << 17;

  bool enabled_;
  std::vector<Span> spans_;  // Span id i lives at spans_[i - 1].
  uint64_t dropped_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
