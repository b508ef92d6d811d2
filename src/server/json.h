// Minimal dependency-free JSON value: parse, build, and compact
// single-line serialization. It deliberately stays small: doubles only
// (no 64-bit integer preservation), object members in insertion order
// (deterministic output), and a parser hardened against malformed and
// deeply nested input — wire bytes are untrusted.
//
// One grammar: Json::Visit walks a document and reports it as events
// to a JsonVisitor. Json::Parse is the visitor that builds a tree (for
// the admin plane, SLO configs, the client and tests); the wire request
// reader (server/protocol.h) is one that decodes only the members a
// request has, with no tree. Both therefore accept the same documents
// and refuse the same ones with the same message.
//
// Number fidelity: numbers serialize as %.17g text (util/json_text.h),
// so a finite double round-trips bit-exactly through Dump() + Parse().
// The server relies on this for its "responses are bit-identical to a
// local Engine" contract. JSON has no NaN or infinity, so Dump() writes
// a non-finite number as null.

#ifndef KARL_SERVER_JSON_H_
#define KARL_SERVER_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace karl::server {

class JsonVisitor;

/// One JSON value: null, bool, number, string, array, or object.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Constructs null.
  Json() = default;

  /// Leaf factories.
  static Json Bool(bool value);
  static Json Number(double value);
  static Json Str(std::string value);

  /// Container factories (empty; fill with Append/Set).
  static Json Array();
  static Json Object();

  Type type() const { return type_; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; calling the wrong one is a programming error.
  bool bool_value() const;
  double number_value() const;
  const std::string& string_value() const;
  const std::vector<Json>& items() const;
  const std::vector<std::pair<std::string, Json>>& members() const;

  /// Object lookup; nullptr when absent (or not an object). Objects on
  /// this protocol are tiny, so lookup is a linear scan.
  const Json* Find(std::string_view key) const;

  /// Appends `value` to an array; returns *this for chaining.
  Json& Append(Json value);

  /// Sets an object member (replacing an existing key); returns *this.
  Json& Set(std::string key, Json value);

  /// Compact single-line serialization (no spaces, no trailing newline).
  /// Strings escape `"`/`\`/control characters, so the output never
  /// contains a raw newline — safe to frame line-delimited. Non-finite
  /// numbers are written as null.
  std::string Dump() const;

  /// Parses exactly one JSON document (trailing garbage rejected).
  /// Rejects non-finite numbers and nesting deeper than 64 levels.
  static util::Result<Json> Parse(std::string_view text);

  /// Walks exactly one JSON document under Parse's rules, reporting it
  /// to `visitor` in document order. On an error the events already
  /// reported are moot; the status says what and at which byte.
  static util::Status Visit(std::string_view text, JsonVisitor* visitor);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

/// The events of one document walk (Json::Visit). Strings and keys
/// arrive decoded; a view is valid only for the duration of the call.
/// A container's members or items arrive between its Begin and End; an
/// object member is its Key followed by its value.
class JsonVisitor {
 public:
  virtual ~JsonVisitor() = default;
  virtual void Null() = 0;
  virtual void Bool(bool value) = 0;
  virtual void Number(double value) = 0;
  virtual void String(std::string_view value) = 0;
  virtual void BeginArray() = 0;
  virtual void EndArray() = 0;
  virtual void BeginObject() = 0;
  virtual void Key(std::string_view key) = 0;
  virtual void EndObject() = 0;
};

}  // namespace karl::server

#endif  // KARL_SERVER_JSON_H_
