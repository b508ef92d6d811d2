// The one JSON text encoder of the library: string escaping and number
// formatting for every JSON surface — wire replies (server/json.h),
// NDJSON log lines (util/log.h), trace files (telemetry/trace.h) and
// the /sloz page (telemetry/slo.h). One definition keeps those surfaces
// byte-compatible with each other and with Json::Parse.

#ifndef KARL_UTIL_JSON_TEXT_H_
#define KARL_UTIL_JSON_TEXT_H_

#include <string>
#include <string_view>

namespace karl::util {

/// Appends `s` escaped for a JSON string, without the surrounding
/// quotes: `"` and `\` are backslash-escaped, `\n \r \t \b \f` use their
/// short escapes, and every other byte below 0x20 becomes `\u00XX`. The
/// output never contains a raw newline, so it is safe to frame
/// line-delimited. Bytes >= 0x20 pass through unchanged.
void AppendJsonEscaped(std::string* out, std::string_view s);

/// Appends `v` as a JSON number: std::to_chars in general format with
/// precision 17, byte-for-byte the text of printf's %.17g, which
/// round-trips every finite double bit-exactly through strtod. JSON has
/// no literal for NaN or ±inf, so a non-finite `v` is written as `null`.
void AppendJsonNumber(std::string* out, double v);

}  // namespace karl::util

#endif  // KARL_UTIL_JSON_TEXT_H_
