#include "server/json.h"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "util/check.h"
#include "util/json_text.h"

namespace karl::server {
namespace {

constexpr int kMaxDepth = 64;

// Recursive-descent parser over a bounded cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  util::Result<Json> ParseDocument() {
    auto value = ParseValue(0);
    if (!value.ok()) return value.status();
    SkipWs();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
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

  util::Result<Json> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWs();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        auto s = ParseString();
        if (!s.ok()) return s.status();
        return Json::Str(std::move(s).ValueOrDie());
      }
      case 't':
        if (ConsumeLiteral("true")) return Json::Bool(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return Json::Bool(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Json();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  util::Result<Json> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Error("malformed number '" + token + "'");
    }
    if (!std::isfinite(value)) {
      return Error("number out of range '" + token + "'");
    }
    return Json::Number(value);
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

  util::Result<std::string> ParseString() {
    KARL_DCHECK(text_[pos_] == '"');
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (auto st = ParseUnicodeEscape(&out); !st.ok()) return st;
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
  }

  util::Result<Json> ParseArray(int depth) {
    ++pos_;  // '['
    Json array = Json::Array();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      array.Append(std::move(value).ValueOrDie());
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return array;
      }
      return Error("expected ',' or ']'");
    }
  }

  util::Result<Json> ParseObject(int depth) {
    ++pos_;  // '{'
    Json object = Json::Object();
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      auto key = ParseString();
      if (!key.ok()) return key.status();
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':'");
      }
      ++pos_;
      auto value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      object.Set(std::move(key).ValueOrDie(), std::move(value).ValueOrDie());
      SkipWs();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return object;
      }
      return Error("expected ',' or '}'");
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
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
  return Parser(text).ParseDocument();
}

}  // namespace karl::server
