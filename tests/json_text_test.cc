// Every JSON surface of the library writes text through the one encoder
// in util/json_text.h. This table pushes the same awkward string (and,
// where the surface takes numbers, NaN and +inf) through each of them
// and parses the output back with the wire parser: the string must come
// back unchanged and the non-finite numbers as null.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "server/json.h"
#include "telemetry/slo.h"
#include "telemetry/trace.h"
#include "util/log.h"

namespace karl {
namespace {

using server::Json;

// `"`, `\`, every short escape, and a bare control byte.
const std::string kAwkward = "q\"b\\n\nr\rt\tb\bf\fx\x01z";
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// What one surface rendered, and how to find in its parsed document the
// string and the two non-finite numbers (no number lookups: the surface
// takes no numbers).
struct Rendered {
  std::string text;
  std::function<std::string(const Json&)> string_at;
  std::function<const Json*(const Json&)> nan_at;
  std::function<const Json*(const Json&)> inf_at;
};

// The string value of `j`, or a marker that cannot equal kAwkward.
std::string StringOf(const Json* j) {
  return j != nullptr && j->is_string() ? j->string_value() : "<missing>";
}

Rendered DumpedJson() {
  Json doc = Json::Object()
                 .Set("s", Json::Str(kAwkward))
                 .Set("nan", Json::Number(kNaN))
                 .Set("inf", Json::Number(kInf));
  return {doc.Dump(), [](const Json& j) { return StringOf(j.Find("s")); },
          [](const Json& j) { return j.Find("nan"); },
          [](const Json& j) { return j.Find("inf"); }};
}

Rendered NdjsonLogLine() {
  std::FILE* stream = std::tmpfile();
  EXPECT_NE(stream, nullptr);
  {
    util::Logger::Options options;
    options.ndjson = true;
    util::Logger logger(stream, options);
    logger.Log(util::LogLevel::kInfo, "json_text_test",
               {{"s", kAwkward}, {"nan", kNaN}, {"inf", kInf}});
  }
  std::rewind(stream);
  std::string line;
  for (int c = std::fgetc(stream); c != EOF && c != '\n';
       c = std::fgetc(stream)) {
    line.push_back(static_cast<char>(c));
  }
  std::fclose(stream);
  return {line, [](const Json& j) { return StringOf(j.Find("s")); },
          [](const Json& j) { return j.Find("nan"); },
          [](const Json& j) { return j.Find("inf"); }};
}

const Json* FirstTraceEvent(const Json& j) {
  const Json* events = j.Find("traceEvents");
  return events != nullptr && events->is_array() && !events->items().empty()
             ? &events->items()[0]
             : nullptr;
}

Rendered TraceFile() {
  telemetry::TraceRecorder recorder;
  recorder.CompleteEvent(kAwkward, 1, 2, {{"nan", kNaN}, {"inf", kInf}});
  const auto arg = [](const char* key) {
    return [key](const Json& j) -> const Json* {
      const Json* event = FirstTraceEvent(j);
      const Json* args = event != nullptr ? event->Find("args") : nullptr;
      return args != nullptr ? args->Find(key) : nullptr;
    };
  };
  return {recorder.ToJson(),
          [](const Json& j) {
            const Json* event = FirstTraceEvent(j);
            return StringOf(event != nullptr ? event->Find("name") : nullptr);
          },
          arg("nan"), arg("inf")};
}

Rendered SlozPage() {
  telemetry::SloEngine slo(telemetry::SloConfig{}, nullptr, nullptr);
  slo.Observe(kAwkward, 10.0, true);
  // The model name is the one key of "models".
  return {slo.SlozJson(),
          [](const Json& j) -> std::string {
            const Json* models = j.Find("models");
            if (models == nullptr || !models->is_object() ||
                models->members().size() != 1) {
              return "<missing>";
            }
            return models->members()[0].first;
          },
          nullptr, nullptr};
}

TEST(JsonTextTest, EverySurfaceRoundTripsEscapesAndWritesNonFiniteAsNull) {
  const std::vector<std::pair<const char*, Rendered>> table = {
      {"Json::Dump", DumpedJson()},
      {"Logger ndjson", NdjsonLogLine()},
      {"TraceRecorder::ToJson", TraceFile()},
      {"SloEngine::SlozJson", SlozPage()},
  };
  for (const auto& [surface, rendered] : table) {
    SCOPED_TRACE(surface);
    auto parsed = Json::Parse(rendered.text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n"
                             << rendered.text;
    EXPECT_EQ(rendered.string_at(parsed.value()), kAwkward) << rendered.text;
    if (rendered.nan_at) {
      const Json* nan = rendered.nan_at(parsed.value());
      const Json* inf = rendered.inf_at(parsed.value());
      ASSERT_NE(nan, nullptr) << rendered.text;
      ASSERT_NE(inf, nullptr) << rendered.text;
      EXPECT_EQ(nan->type(), Json::Type::kNull) << rendered.text;
      EXPECT_EQ(inf->type(), Json::Type::kNull) << rendered.text;
    }
  }
}

}  // namespace
}  // namespace karl
