// Every JSON surface of the library writes text through the one encoder
// in util/json_text.h. This table pushes the same awkward string (and,
// where the surface takes numbers, NaN and +inf) through each of them
// and parses the output back with the wire parser: the string must come
// back unchanged and the non-finite numbers as null. The encoder prints
// numbers byte-for-byte as %.17g, the parser reads them exactly as
// strtod does, and the wire reply builders, which append their lines
// directly, print the bytes Json::Dump printed.

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "server/json.h"
#include "server/protocol.h"
#include "telemetry/slo.h"
#include "telemetry/trace.h"
#include "util/json_text.h"
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

// Doubles that reach every branch of %.17g: zeros, subnormals, the
// normal range's ends, integers past 2^53, round-trip near misses, and
// random bit patterns.
std::vector<double> NumberSweep() {
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.1, 0.1 + 0.2, 1.0 / 3.0, 100.0, 1e15, 1e16,
      1e17, 1e21, 1e22, 1e23, 123456789012345678.0, 9007199254740992.0,
      9007199254740993.0, 9007199254740994.0, 18446744073709551616.0,
      DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN,
      DBL_MIN - DBL_TRUE_MIN, 4.9406564584124654e-324, 1e-320, 1e-310,
      std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0), 5e-324, 0.5,
      1e-5, 1e-4, 123.456, -2.5e-300};
  std::mt19937_64 rng(17);
  for (int i = 0; i < 200000; ++i) {
    const uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    if (std::isfinite(v)) values.push_back(v);
  }
  for (int i = 0; i < 20000; ++i) {
    // Subnormals, small integers and decimals with few digits.
    const uint64_t mantissa = rng() & ((uint64_t{1} << 52) - 1);
    double subnormal = 0.0;
    std::memcpy(&subnormal, &mantissa, sizeof(subnormal));
    values.push_back(subnormal);
    values.push_back(static_cast<double>(static_cast<int64_t>(rng())) /
                     static_cast<double>(1 + rng() % 1000000));
    values.push_back(static_cast<double>(rng() >> (rng() % 64)));
  }
  return values;
}

TEST(JsonTextTest, NumbersPrintExactlyAsPercentPoint17g) {
  for (const double v : NumberSweep()) {
    char want[40];
    std::snprintf(want, sizeof(want), "%.17g", v);
    std::string got;
    util::AppendJsonNumber(&got, v);
    ASSERT_EQ(got, want) << "bits of " << want;
  }
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::string got = "x";
    util::AppendJsonNumber(&got, v);
    EXPECT_EQ(got, "xnull");
  }
}

// What Json::Parse made of a document that is one number token, under
// the rule it was written with: the token is the run of digits, '.',
// 'e', 'E', '+' and '-', and strtod must convert all of it to a finite
// value. Either the value, or the refusal's message ("" for a document
// that is not one token, refused for another reason).
struct StrtodVerdict {
  std::optional<double> value;
  std::string error;
};

StrtodVerdict StrtodNumber(const std::string& token) {
  if (token.empty() ||
      token.find_first_not_of("0123456789.eE+-") != std::string::npos) {
    return {};
  }
  const std::string at =
      "JSON parse error at byte " + std::to_string(token.size()) + ": ";
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size()) {
    return {std::nullopt, at + "malformed number '" + token + "'"};
  }
  if (!std::isfinite(value)) {
    return {std::nullopt, at + "number out of range '" + token + "'"};
  }
  return {value, ""};
}

TEST(JsonTextTest, NumbersParseExactlyAsStrtodReadsThem) {
  std::vector<std::string> tokens = {
      "0",    "-0",     "+1",    "+-1",    "++1",   "-+1",   "--1",
      ".5",   "5.",     "-.5",   "1e",     "1e+",   "1e-",   "1e5",
      "1E+5", "1e-400", "-1e-400", "1e400", "-1e400", "1.2.3", "1e2e3",
      "-",    "+",      ".",     "e5",     "00012", "1-2",   "4.9e-324",
      "2.4703282292062327e-324", "2.4703282292062328e-324",
      "1.7976931348623157e308", "1.7976931348623159e308", "inf", "-inf",
      "+inf", "Infinity", "-Infinity", "NaN", "-nan", "+nan", "1inf",
      "-", "0x10", "1.5e3x"};
  std::vector<double> values = NumberSweep();
  values.resize(40000);
  for (const double v : values) {
    for (const char* format : {"%.17g", "%.6g", "%.17e", "%+.3e"}) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), format, v);
      tokens.emplace_back(buf);
    }
  }
  std::mt19937_64 rng(23);
  static constexpr std::string_view kChars = "0123456789.eE+-infx";
  for (int i = 0; i < 200000; ++i) {
    std::string token(1 + rng() % 10, ' ');
    for (char& c : token) c = kChars[rng() % kChars.size()];
    tokens.push_back(std::move(token));
  }
  for (const std::string& token : tokens) {
    const StrtodVerdict want = StrtodNumber(token);
    const auto got = server::Json::Parse(token);
    ASSERT_EQ(got.ok(), want.value.has_value()) << token;
    if (!got.ok()) {
      if (!want.error.empty()) {
        ASSERT_EQ(got.status().message(), want.error) << token;
      }
      continue;
    }
    const double value = got.value().number_value();
    ASSERT_EQ(std::memcmp(&value, &*want.value, sizeof(value)), 0) << token;
  }
}

// The reply builders as they were written on the Json tree, the oracle
// for the direct builders.
std::string DomFinish(Json response, const std::string& id) {
  if (!id.empty()) response.Set("id", Json::Str(id));
  return response.Dump() + "\n";
}

Json DomOk(const char* key, Json value) {
  return Json::Object().Set("ok", Json::Bool(true)).Set(key, std::move(value));
}

std::string DomError(const std::string& id, const std::string& code,
                     const std::string& detail) {
  Json response = Json::Object()
                      .Set("ok", Json::Bool(false))
                      .Set("error", Json::Str(code));
  if (!detail.empty()) response.Set("detail", Json::Str(detail));
  return DomFinish(std::move(response), id);
}

TEST(JsonTextTest, ReplyBuildersPrintTheBytesOfTheJsonTree) {
  const std::vector<std::string> ids = {
      "", "q1", kAwkward, "\xc3\xa9\xf0\x9f\x98\x80", "\x7f", "/",
      std::string(300, 'i')};
  std::vector<double> values = NumberSweep();
  values.resize(2000);
  values.push_back(kNaN);
  values.push_back(kInf);
  values.push_back(-kInf);
  std::vector<uint8_t> bools;
  for (size_t i = 0; i < values.size(); ++i) bools.push_back(i % 3 == 0);
  const Json explain =
      Json::Object()
          .Set("bounds", Json::Str("karl"))
          .Set("levels", Json::Array().Append(Json::Object().Set(
                             "depth", Json::Number(0.0))))
          .Set("timeline", Json::Array().Append(Json::Number(0.1 + 0.2)))
          .Set("s", Json::Str(kAwkward));

  for (const std::string& id : ids) {
    SCOPED_TRACE("id " + id.substr(0, 20));
    for (const bool above : {true, false}) {
      EXPECT_EQ(server::OkBoolResponse(id, above),
                DomFinish(DomOk("above", Json::Bool(above)), id));
      EXPECT_EQ(server::OkExplainBoolResponse(id, above, explain.Dump()),
                DomFinish(DomOk("above", Json::Bool(above))
                              .Set("explain", explain),
                          id));
    }
    for (const double v : values) {
      ASSERT_EQ(server::OkValueResponse(id, v),
                DomFinish(DomOk("value", Json::Number(v)), id));
      ASSERT_EQ(server::OkExplainValueResponse(id, v, explain.Dump()),
                DomFinish(DomOk("value", Json::Number(v))
                              .Set("explain", explain),
                          id));
    }
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, values.size()}) {
      Json list = Json::Array();
      Json flags = Json::Array();
      for (size_t i = 0; i < n; ++i) {
        list.Append(Json::Number(values[i]));
        flags.Append(Json::Bool(bools[i] != 0));
      }
      EXPECT_EQ(server::OkValuesResponse(
                    id, std::span<const double>(values).first(n)),
                DomFinish(DomOk("values", std::move(list)), id));
      EXPECT_EQ(server::OkBoolsResponse(
                    id, std::span<const uint8_t>(bools).first(n)),
                DomFinish(DomOk("above", std::move(flags)), id));
    }
    for (const std::string& detail :
         std::vector<std::string>{"", "server is draining", kAwkward}) {
      for (const char* code : {"bad_request", "overloaded", "internal"}) {
        EXPECT_EQ(server::ErrorResponse(id, code, detail),
                  DomError(id, code, detail));
      }
    }
  }
  for (const std::string& status :
       std::vector<std::string>{"serving", "draining", kAwkward}) {
    EXPECT_EQ(server::OkStatusResponse(status),
              DomFinish(DomOk("status", Json::Str(status)), ""));
  }
}

}  // namespace
}  // namespace karl
