#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <string_view>
#include <utility>

#include "stats.h"

namespace perfbench {

uint32_t Tracer::Begin(const char* name, uint32_t parent) {
  if (!enabled_) return kNone;
  return Add(name, NowNs(), 0, parent);
}

void Tracer::End(uint32_t span) {
  if (span != kNone) spans_[span - 1].end_ns = NowNs();
}

uint32_t Tracer::Add(const char* name, uint64_t start_ns, uint64_t end_ns,
                     uint32_t parent, uint64_t request) {
  if (!enabled_) return kNone;
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return kNone;
  }
  spans_.push_back(Span{name, parent, request, start_ns, end_ns});
  return static_cast<uint32_t>(spans_.size());
}

bool Tracer::Write(const std::string& path, const std::string& header) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "%s\n", header.c_str());

  // Child intervals per parent, to subtract covered time from the parent.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans_.size());
  for (const auto& span : spans_) {
    if (span.parent != kNone) {
      children[span.parent - 1].emplace_back(span.start_ns, span.end_ns);
    }
  }
  struct Totals {
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string_view, Totals> by_name;
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const uint64_t duration = span.end_ns - span.start_ns;
    // Union of the child intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = span.start_ns;
    for (const auto& [start, end] : kids) {
      const uint64_t lo = std::max(start, cursor);
      const uint64_t hi = std::min(end, span.end_ns);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    Totals& totals = by_name[span.name];
    ++totals.count;
    totals.total_ms += static_cast<double>(duration) / 1e6;
    totals.self_ms += static_cast<double>(duration - covered) / 1e6;
    std::fprintf(out,
                 "{\"span\":%zu,\"parent\":%u,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 i + 1, span.parent,
                 static_cast<unsigned long long>(span.request), span.name,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - origin) / 1e3);
  }
  for (const auto& [name, totals] : by_name) {
    std::fprintf(out,
                 "{\"summary\":\"%.*s\",\"count\":%llu,\"total_ms\":%.6f,"
                 "\"self_ms\":%.6f}\n",
                 static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(totals.count),
                 totals.total_ms, totals.self_ms);
  }
  std::fprintf(out, "{\"dropped_spans\":%llu}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(out) == 0;
}

}  // namespace perfbench
