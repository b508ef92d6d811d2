#include "util/log.h"

#include <cctype>
#include <chrono>
#include <ctime>

#include "util/json_text.h"

namespace karl::util {

namespace {

// UTC wall-clock timestamp with microseconds, ISO 8601.
void AppendTimestamp(std::string* out) {
  const auto now = std::chrono::system_clock::now();
  const std::time_t seconds = std::chrono::system_clock::to_time_t(now);
  const auto micros =
      std::chrono::duration_cast<std::chrono::microseconds>(
          now.time_since_epoch())
          .count() %
      1000000;
  std::tm tm{};
  gmtime_r(&seconds, &tm);
  // Sized for the compiler's worst-case field widths (full int range),
  // not just the realistic 27-byte output, to stay -Wformat-truncation
  // clean.
  char buffer[96];
  std::snprintf(buffer, sizeof(buffer),
                "%04d-%02d-%02dT%02d:%02d:%02d.%06dZ", tm.tm_year + 1900,
                tm.tm_mon + 1, tm.tm_mday, tm.tm_hour, tm.tm_min, tm.tm_sec,
                static_cast<int>(micros));
  out->append(buffer);
}

// Both renderings write a field's value as its JSON text.
void AppendFieldValue(std::string* out, const LogField& field) {
  char buffer[32];
  switch (field.kind) {
    case LogField::Kind::kString:
      out->push_back('"');
      AppendJsonEscaped(out, field.str);
      out->push_back('"');
      break;
    case LogField::Kind::kNumber:
      AppendJsonNumber(out, field.num);
      break;
    case LogField::Kind::kUint:
      std::snprintf(buffer, sizeof(buffer), "%llu",
                    static_cast<unsigned long long>(field.uint));
      out->append(buffer);
      break;
    case LogField::Kind::kInt:
      std::snprintf(buffer, sizeof(buffer), "%lld",
                    static_cast<long long>(field.int_));
      out->append(buffer);
      break;
    case LogField::Kind::kBool:
      out->append(field.flag ? "true" : "false");
      break;
  }
}

}  // namespace

std::string_view LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
  }
  return "info";
}

util::Result<LogLevel> ParseLogLevel(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  return util::Status::InvalidArgument("unknown log level '" +
                                       std::string(name) +
                                       "' (debug|info|warn|error)");
}

Logger::Logger(std::FILE* stream, Options options)
    : Logger(stream, options, /*owns_stream=*/false) {}

Logger::Logger(std::FILE* stream, Options options, bool owns_stream)
    : stream_(stream),
      owns_stream_(owns_stream),
      options_(options) {}

util::Result<std::unique_ptr<Logger>> Logger::Open(const std::string& path,
                                                   Options options) {
  std::FILE* stream = std::fopen(path.c_str(), "ae");
  if (stream == nullptr) {
    return util::Status::IOError("cannot open log file '" + path + "'");
  }
  return std::unique_ptr<Logger>(
      new Logger(stream, options, /*owns_stream=*/true));
}

Logger::~Logger() {
  if (owns_stream_ && stream_ != nullptr) std::fclose(stream_);
}

void Logger::Log(LogLevel level, std::string_view event,
                 std::vector<LogField> fields) {
  if (!enabled(level)) return;

  // Format outside the lock; the final write is a single buffered
  // fwrite, so concurrent lines never interleave mid-line.
  std::string line;
  line.reserve(128);
  if (options_.ndjson) {
    line += "{\"ts\":\"";
    AppendTimestamp(&line);
    line += "\",\"level\":\"";
    line += LogLevelName(level);
    line += "\",\"event\":\"";
    AppendJsonEscaped(&line, event);
    line += "\"";
    for (const LogField& field : fields) {
      line += ",\"";
      AppendJsonEscaped(&line, field.key);
      line += "\":";
      AppendFieldValue(&line, field);
    }
    line += "}\n";
  } else {
    AppendTimestamp(&line);
    line.push_back(' ');
    std::string level_name(LogLevelName(level));
    for (char& ch : level_name) ch = static_cast<char>(std::toupper(ch));
    line += level_name;
    line.push_back(' ');
    AppendJsonEscaped(&line, event);
    for (const LogField& field : fields) {
      line.push_back(' ');
      AppendJsonEscaped(&line, field.key);
      line.push_back('=');
      AppendFieldValue(&line, field);
    }
    line.push_back('\n');
  }

  const MutexLock lock(&mu_);
  std::fwrite(line.data(), 1, line.size(), stream_);
  std::fflush(stream_);
}

void Log(Logger* logger, LogLevel level, std::string_view event,
         std::vector<LogField> fields) {
  if (logger == nullptr) return;
  logger->Log(level, event, std::move(fields));
}

}  // namespace karl::util
