#include "server/json.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>

#include "util/check.h"
#include "util/json_text.h"

namespace karl::server {
namespace {

constexpr int kMaxDepth = 64;

// Recursive-descent walk over a bounded cursor, reporting each value to
// the visitor as it is read.
class Walker {
 public:
  Walker(std::string_view text, JsonVisitor* visitor)
      : text_(text), visitor_(visitor) {}

  util::Status WalkDocument() {
    KARL_RETURN_NOT_OK(WalkValue(0));
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return util::Status::OK();
  }

 private:
  util::Status Error(const std::string& what) const {
    return util::Status::InvalidArgument("JSON parse error at byte " +
                                         std::to_string(pos_) + ": " + what);
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  util::Status WalkValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return WalkObject(depth);
      case '[':
        return WalkArray(depth);
      case '"': {
        std::string_view s;
        KARL_RETURN_NOT_OK(ParseString(&s));
        visitor_->String(s);
        return util::Status::OK();
      }
      case 't':
        if (!ConsumeLiteral("true")) return Error("invalid literal");
        visitor_->Bool(true);
        return util::Status::OK();
      case 'f':
        if (!ConsumeLiteral("false")) return Error("invalid literal");
        visitor_->Bool(false);
        return util::Status::OK();
      case 'n':
        if (!ConsumeLiteral("null")) return Error("invalid literal");
        visitor_->Null();
        return util::Status::OK();
      default: {
        double value = 0.0;
        KARL_RETURN_NOT_OK(ParseNumber(&value));
        visitor_->Number(value);
        return util::Status::OK();
      }
    }
  }

  // A character of a number token: the token is the longest run of
  // digits, '.', 'e', 'E', '+' and '-'.
  static bool InNumber(char c) {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
  }

  // A number's value is what strtod makes of its whole token. The fast
  // path reads it with std::from_chars in place: a finite from_chars
  // result read only token characters, so when it stops where the token
  // ends it read the token, to the same correctly rounded value (strtod
  // also takes a leading '+', skipped here). Anything else (a malformed
  // token, a result out of double's range, a non-finite spelling such as
  // "inf") takes the token through strtod, whose verdict stands.
  util::Status ParseNumber(double* out) {
    const size_t start = pos_;
    const char* first = text_.data() + start;
    const char* const text_end = text_.data() + text_.size();
    if (*first == '+' && first + 1 < text_end && first[1] != '-') ++first;
    const std::from_chars_result parsed =
        std::from_chars(first, text_end, *out);
    if (parsed.ec == std::errc() && std::isfinite(*out) &&
        (parsed.ptr == text_end || !InNumber(*parsed.ptr))) {
      pos_ = static_cast<size_t>(parsed.ptr - text_.data());
      return util::Status::OK();
    }
    while (pos_ < text_.size() && InNumber(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("malformed number '" + token + "'");
    }
    if (!std::isfinite(*out)) {
      return Error("number out of range '" + token + "'");
    }
    return util::Status::OK();
  }

  // Decodes one \uXXXX escape (pos_ past the 'u'), pairing surrogates,
  // and appends UTF-8.
  util::Status ParseUnicodeEscape(std::string* out) {
    auto hex4 = [this](uint32_t* cp) -> bool {
      if (pos_ + 4 > text_.size()) return false;
      uint32_t v = 0;
      for (int i = 0; i < 4; ++i) {
        const char h = text_[pos_ + i];
        v <<= 4;
        if (h >= '0' && h <= '9') {
          v |= static_cast<uint32_t>(h - '0');
        } else if (h >= 'a' && h <= 'f') {
          v |= static_cast<uint32_t>(h - 'a' + 10);
        } else if (h >= 'A' && h <= 'F') {
          v |= static_cast<uint32_t>(h - 'A' + 10);
        } else {
          return false;
        }
      }
      pos_ += 4;
      *cp = v;
      return true;
    };
    uint32_t cp = 0;
    if (!hex4(&cp)) return Error("bad \\u escape");
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (pos_ + 2 <= text_.size() && text_[pos_] == '\\' &&
          text_[pos_ + 1] == 'u') {
        pos_ += 2;
        uint32_t low = 0;
        if (!hex4(&low) || low < 0xDC00 || low > 0xDFFF) {
          return Error("bad low surrogate");
        }
        cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
      } else {
        return Error("unpaired surrogate");
      }
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      return Error("unpaired surrogate");
    }
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
    return util::Status::OK();
  }

  // Reads the string at pos_ (its opening quote). A string without
  // escapes is a view into the text; one with escapes is decoded into
  // scratch_, valid until the next string.
  util::Status ParseString(std::string_view* out) {
    KARL_DCHECK(text_[pos_] == '"');
    const size_t begin = ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"' &&
           text_[pos_] != '\\' &&
           static_cast<unsigned char>(text_[pos_]) >= 0x20) {
      ++pos_;
    }
    if (pos_ < text_.size() && text_[pos_] == '"') {
      *out = text_.substr(begin, pos_++ - begin);
      return util::Status::OK();
    }
    scratch_.assign(text_.data() + begin, pos_ - begin);
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        scratch_.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          scratch_.push_back('"');
          break;
        case '\\':
          scratch_.push_back('\\');
          break;
        case '/':
          scratch_.push_back('/');
          break;
        case 'n':
          scratch_.push_back('\n');
          break;
        case 'r':
          scratch_.push_back('\r');
          break;
        case 't':
          scratch_.push_back('\t');
          break;
        case 'b':
          scratch_.push_back('\b');
          break;
        case 'f':
          scratch_.push_back('\f');
          break;
        case 'u':
          KARL_RETURN_NOT_OK(ParseUnicodeEscape(&scratch_));
          break;
        default:
          return Error("invalid escape");
      }
    }
    *out = scratch_;
    return util::Status::OK();
  }

  util::Status WalkArray(int depth) {
    ++pos_;  // '['
    visitor_->BeginArray();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      visitor_->EndArray();
      return util::Status::OK();
    }
    while (true) {
      KARL_RETURN_NOT_OK(WalkValue(depth + 1));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        visitor_->EndArray();
        return util::Status::OK();
      }
      return Error("expected ',' or ']'");
    }
  }

  util::Status WalkObject(int depth) {
    ++pos_;  // '{'
    visitor_->BeginObject();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      visitor_->EndObject();
      return util::Status::OK();
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string_view key;
      KARL_RETURN_NOT_OK(ParseString(&key));
      visitor_->Key(key);
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':'");
      }
      ++pos_;
      KARL_RETURN_NOT_OK(WalkValue(depth + 1));
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        visitor_->EndObject();
        return util::Status::OK();
      }
      return Error("expected ',' or '}'");
    }
  }

  std::string_view text_;
  JsonVisitor* visitor_;
  size_t pos_ = 0;
  std::string scratch_;
};

// Json::Parse's visitor: builds the tree. A value is appended to the
// innermost open array, or set on the innermost open object under the
// innermost pending key (a repeated key keeps its last value).
class TreeBuilder final : public JsonVisitor {
 public:
  Json Take() { return std::move(root_); }

  void Null() override { Add(Json()); }
  void Bool(bool value) override { Add(Json::Bool(value)); }
  void Number(double value) override { Add(Json::Number(value)); }
  void String(std::string_view value) override {
    Add(Json::Str(std::string(value)));
  }
  void BeginArray() override { open_.push_back(Json::Array()); }
  void BeginObject() override { open_.push_back(Json::Object()); }
  void Key(std::string_view key) override { keys_.emplace_back(key); }
  void EndArray() override { Close(); }
  void EndObject() override { Close(); }

 private:
  void Close() {
    Json done = std::move(open_.back());
    open_.pop_back();
    Add(std::move(done));
  }

  void Add(Json value) {
    if (open_.empty()) {
      root_ = std::move(value);
    } else if (open_.back().is_array()) {
      open_.back().Append(std::move(value));
    } else {
      open_.back().Set(std::move(keys_.back()), std::move(value));
      keys_.pop_back();
    }
  }

  std::vector<Json> open_;
  std::vector<std::string> keys_;
  Json root_;
};

}  // namespace

Json Json::Bool(bool value) {
  Json j;
  j.type_ = Type::kBool;
  j.bool_ = value;
  return j;
}

Json Json::Number(double value) {
  Json j;
  j.type_ = Type::kNumber;
  j.number_ = value;
  return j;
}

Json Json::Str(std::string value) {
  Json j;
  j.type_ = Type::kString;
  j.string_ = std::move(value);
  return j;
}

Json Json::Array() {
  Json j;
  j.type_ = Type::kArray;
  return j;
}

Json Json::Object() {
  Json j;
  j.type_ = Type::kObject;
  return j;
}

bool Json::bool_value() const {
  KARL_DCHECK(is_bool()) << ": bool_value() on non-bool Json";
  return bool_;
}

double Json::number_value() const {
  KARL_DCHECK(is_number()) << ": number_value() on non-number Json";
  return number_;
}

const std::string& Json::string_value() const {
  KARL_DCHECK(is_string()) << ": string_value() on non-string Json";
  return string_;
}

const std::vector<Json>& Json::items() const {
  KARL_DCHECK(is_array()) << ": items() on non-array Json";
  return items_;
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  KARL_DCHECK(is_object()) << ": members() on non-object Json";
  return members_;
}

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Json& Json::Append(Json value) {
  KARL_DCHECK(is_array()) << ": Append() on non-array Json";
  items_.push_back(std::move(value));
  return *this;
}

Json& Json::Set(std::string key, Json value) {
  KARL_DCHECK(is_object()) << ": Set() on non-object Json";
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
  return *this;
}

std::string Json::Dump() const {
  std::string out;
  switch (type_) {
    case Type::kNull:
      out = "null";
      break;
    case Type::kBool:
      out = bool_ ? "true" : "false";
      break;
    case Type::kNumber:
      util::AppendJsonNumber(&out, number_);
      break;
    case Type::kString:
      out.push_back('"');
      util::AppendJsonEscaped(&out, string_);
      out.push_back('"');
      break;
    case Type::kArray: {
      out.push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out.push_back(',');
        out += items_[i].Dump();
      }
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out.push_back(',');
        out.push_back('"');
        util::AppendJsonEscaped(&out, members_[i].first);
        out += "\":";
        out += members_[i].second.Dump();
      }
      out.push_back('}');
      break;
    }
  }
  return out;
}

util::Result<Json> Json::Parse(std::string_view text) {
  TreeBuilder builder;
  KARL_RETURN_NOT_OK(Visit(text, &builder));
  return builder.Take();
}

util::Status Json::Visit(std::string_view text, JsonVisitor* visitor) {
  return Walker(text, visitor).WalkDocument();
}

}  // namespace karl::server
