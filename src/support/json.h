// Minimal JSON document model for machine-readable compilation reports and
// the compile-service wire protocol: a builder for everything qfs emits,
// plus a strict parser (JsonValue::parse) for what the service consumes.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.h"

namespace qfs {

class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue null();
  static JsonValue boolean(bool value);
  static JsonValue number(double value);
  static JsonValue integer(long long value);
  static JsonValue string(std::string value);
  static JsonValue array();
  static JsonValue object();

  /// Strict JSON parse of a complete document (trailing non-whitespace is a
  /// parse_error). Numbers without '.', 'e' or 'E' that fit a long long
  /// decode as integers, everything else as doubles. Nesting is capped (64
  /// levels) so adversarial input cannot blow the stack; input from an
  /// untrusted socket is the expected caller.
  static qfs::StatusOr<JsonValue> parse(std::string_view text);

  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  /// True for both floating-point and integer-kind numbers.
  bool is_number() const {
    return kind_ == Kind::kNumber || kind_ == Kind::kInteger;
  }
  bool is_integer() const { return kind_ == Kind::kInteger; }

  // Checked accessors: calling the wrong one is a contract violation, so
  // consumers validate kinds first (is_* above).
  bool as_bool() const;
  /// Numeric value of either number kind.
  double as_number() const;
  /// Integer-kind value only.
  long long as_integer() const;
  const std::string& as_string() const;

  /// Array element count / object member count (contract violation on
  /// scalar kinds).
  std::size_t size() const;

  /// Array element by index (contract violation when out of range).
  const JsonValue& at(std::size_t index) const;

  /// Object member by key, or nullptr when absent (contract violation on
  /// non-objects).
  const JsonValue* find(const std::string& key) const;

  /// Object members in insertion order (contract violation on non-objects);
  /// lets consumers reject unknown fields by name.
  const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Append to an array (contract violation on non-arrays).
  JsonValue& push_back(JsonValue value);

  /// Set an object member (contract violation on non-objects).
  JsonValue& set(const std::string& key, JsonValue value);

  /// Compact rendering ({"a":1,...}); keys in insertion order.
  std::string to_string() const;

  /// Indented rendering.
  std::string to_pretty_string(int indent = 2) const;

 private:
  enum class Kind { kNull, kBool, kNumber, kInteger, kString, kArray, kObject };

  void render(std::string& out, int indent, int depth) const;

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  long long integer_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Escape a string for embedding in JSON (quotes not included).
std::string json_escape(const std::string& s);

}  // namespace qfs
