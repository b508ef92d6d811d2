// Structured, leveled, thread-safe logging — the diagnostics channel of
// the serving stack (and anything else that outgrows fprintf).
//
// A log line is an event name plus typed key/value fields, rendered
// either as human-readable text
//   2026-08-06T12:00:00.123456Z INFO server.start port=7070 model="x"
// or as NDJSON (one JSON object per line; the access-log format)
//   {"ts":"...","level":"info","event":"server.start","port":7070,...}
// Both renderings escape strings, so a line never contains a raw
// newline — safe to tail, grep, and parse line-by-line.
//
// Concurrency: any number of threads may log to one Logger; the write
// is guarded by a mutex held only for the final buffered write, and
// each line is flushed so crashes and tests never lose the tail.

#ifndef KARL_UTIL_LOG_H_
#define KARL_UTIL_LOG_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"

namespace karl::util {

/// Log severities, ordered; a logger emits levels >= its minimum.
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Lowercase level name ("debug" / "info" / "warn" / "error").
std::string_view LogLevelName(LogLevel level);

/// Parses a level name (as accepted by --log-level); error on anything
/// other than debug|info|warn|error.
util::Result<LogLevel> ParseLogLevel(std::string_view name);

/// One typed key/value field of a structured log line.
struct LogField {
  enum class Kind { kString, kNumber, kUint, kInt, kBool };

  LogField(std::string_view key, std::string_view value)
      : key(key), kind(Kind::kString), str(value) {}
  LogField(std::string_view key, const char* value)
      : key(key), kind(Kind::kString), str(value) {}
  LogField(std::string_view key, const std::string& value)
      : key(key), kind(Kind::kString), str(value) {}
  LogField(std::string_view key, double value)
      : key(key), kind(Kind::kNumber), num(value) {}
  LogField(std::string_view key, uint64_t value)
      : key(key), kind(Kind::kUint), uint(value) {}
  LogField(std::string_view key, int64_t value)
      : key(key), kind(Kind::kInt), int_(value) {}
  LogField(std::string_view key, int value)
      : key(key), kind(Kind::kInt), int_(value) {}
  LogField(std::string_view key, bool value)
      : key(key), kind(Kind::kBool), flag(value) {}

  std::string key;
  Kind kind = Kind::kString;
  std::string str;
  double num = 0.0;
  uint64_t uint = 0;
  int64_t int_ = 0;
  bool flag = false;
};

/// See file comment.
class Logger {
 public:
  struct Options {
    /// Lines below this level are dropped before formatting.
    LogLevel min_level = LogLevel::kInfo;
    /// NDJSON rendering instead of text.
    bool ndjson = false;
  };

  /// Logs to `stream` (non-owning; e.g. stderr).
  Logger(std::FILE* stream, Options options);

  /// Opens `path` for appending and logs there (owning).
  static util::Result<std::unique_ptr<Logger>> Open(const std::string& path,
                                                    Options options);

  ~Logger();
  Logger(const Logger&) = delete;
  Logger& operator=(const Logger&) = delete;

  /// Emits one structured line; drops it when below the minimum level.
  void Log(LogLevel level, std::string_view event,
           std::vector<LogField> fields = {});

  /// True when `level` would be emitted (cheap pre-check for call
  /// sites that build expensive field lists).
  bool enabled(LogLevel level) const { return level >= options_.min_level; }

 private:
  Logger(std::FILE* stream, Options options, bool owns_stream);

  std::FILE* stream_;  // Written only under mu_ after construction.
  const bool owns_stream_;
  const Options options_;

  Mutex mu_;
};

/// Null-safe convenience: `Log(logger, ...)` is a no-op when `logger`
/// is null — call sites need no "is logging configured" branch.
void Log(Logger* logger, LogLevel level, std::string_view event,
         std::vector<LogField> fields = {});

}  // namespace karl::util

#endif  // KARL_UTIL_LOG_H_
