// Test-side JSON reader: a small recursive-descent parser that reads back
// what mdl::obs emits (RunLogger JSONL, the flight recorder's Chrome trace,
// bench --json output and the golden traces). Numbers are stored as double;
// parse errors throw mdl::Error.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace mdl::obs {

/// Parsed JSON value (object keys are sorted; duplicates keep the last).
class Json {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses exactly one JSON value (trailing whitespace allowed).
  static Json parse(const std::string& text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }

  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;

  /// Array access.
  std::size_t size() const;
  const Json& at(std::size_t i) const;

  /// Object access.
  bool has(const std::string& key) const;
  const Json& at(const std::string& key) const;
  /// All key/value pairs of an object (sorted by key; throws otherwise).
  const std::map<std::string, Json>& items() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;

  friend class JsonParser;
};

}  // namespace mdl::obs
