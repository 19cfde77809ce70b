#include "json_reader.hpp"

#include <cctype>
#include <cstdlib>

#include "core/error.hpp"

namespace mdl::obs {

/// Recursive-descent parser over a string view of the input.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    MDL_CHECK(pos_ == text_.size(),
              "trailing characters after JSON value at offset " << pos_);
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  char peek() {
    MDL_CHECK(pos_ < text_.size(), "unexpected end of JSON input");
    return text_[pos_];
  }

  void expect(char c) {
    MDL_CHECK(pos_ < text_.size() && text_[pos_] == c,
              "expected `" << c << "` at offset " << pos_);
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t i = 0;
    while (lit[i] != '\0') {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != lit[i]) return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Json v;
        v.kind_ = Json::Kind::kString;
        v.string_ = string();
        return v;
      }
      case 't':
        MDL_CHECK(consume_literal("true"), "bad literal at offset " << pos_);
        return boolean(true);
      case 'f':
        MDL_CHECK(consume_literal("false"), "bad literal at offset " << pos_);
        return boolean(false);
      case 'n':
        MDL_CHECK(consume_literal("null"), "bad literal at offset " << pos_);
        return Json{};
      default: return number();
    }
  }

  static Json boolean(bool b) {
    Json v;
    v.kind_ = Json::Kind::kBool;
    v.bool_ = b;
    return v;
  }

  Json number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    MDL_CHECK(pos_ > start, "expected a JSON value at offset " << start);
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    MDL_CHECK(end != nullptr && *end == '\0',
              "malformed number `" << token << "` at offset " << start);
    Json v;
    v.kind_ = Json::Kind::kNumber;
    v.number_ = parsed;
    return v;
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      MDL_CHECK(pos_ < text_.size(), "unterminated JSON string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      MDL_CHECK(pos_ < text_.size(), "unterminated escape in JSON string");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          MDL_CHECK(pos_ + 4 <= text_.size(), "truncated \\u escape");
          const std::string hex = text_.substr(pos_, 4);
          pos_ += 4;
          char* end = nullptr;
          const long code = std::strtol(hex.c_str(), &end, 16);
          MDL_CHECK(end != nullptr && *end == '\0',
                    "malformed \\u escape `" << hex << "`");
          // The emitters only produce \u00xx control escapes; decode the
          // Latin-1 range and pass anything else through as '?' rather than
          // implementing full UTF-16 surrogate handling.
          out += code < 0x100 ? static_cast<char>(code) : '?';
          break;
        }
        default: MDL_FAIL("unknown escape `\\" << esc << "` in JSON string");
      }
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.kind_ = Json::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array_.push_back(value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return v;
      MDL_CHECK(c == ',', "expected `,` or `]` at offset " << pos_ - 1);
    }
  }

  Json object() {
    expect('{');
    Json v;
    v.kind_ = Json::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object_[std::move(key)] = value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return v;
      MDL_CHECK(c == ',', "expected `,` or `}` at offset " << pos_ - 1);
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Json Json::parse(const std::string& text) { return JsonParser(text).parse(); }

bool Json::as_bool() const {
  MDL_CHECK(kind_ == Kind::kBool, "JSON value is not a bool");
  return bool_;
}

double Json::as_number() const {
  MDL_CHECK(kind_ == Kind::kNumber, "JSON value is not a number");
  return number_;
}

const std::string& Json::as_string() const {
  MDL_CHECK(kind_ == Kind::kString, "JSON value is not a string");
  return string_;
}

std::size_t Json::size() const {
  MDL_CHECK(kind_ == Kind::kArray, "JSON value is not an array");
  return array_.size();
}

const Json& Json::at(std::size_t i) const {
  MDL_CHECK(kind_ == Kind::kArray, "JSON value is not an array");
  MDL_CHECK(i < array_.size(), "JSON array index " << i << " out of range");
  return array_[i];
}

bool Json::has(const std::string& key) const {
  MDL_CHECK(kind_ == Kind::kObject, "JSON value is not an object");
  return object_.find(key) != object_.end();
}

const Json& Json::at(const std::string& key) const {
  MDL_CHECK(kind_ == Kind::kObject, "JSON value is not an object");
  const auto it = object_.find(key);
  MDL_CHECK(it != object_.end(), "missing JSON key `" << key << "`");
  return it->second;
}

const std::map<std::string, Json>& Json::items() const {
  MDL_CHECK(kind_ == Kind::kObject, "JSON value is not an object");
  return object_;
}

}  // namespace mdl::obs
