// JsonParser: a small, dependency-free JSON parser for the wire protocol.
//
// Parses one complete JSON document into a JsonValue DOM. Strict by
// design — trailing garbage, unterminated literals, invalid escapes and
// documents nested deeper than kMaxJsonDepth are errors — because the
// input is an untrusted NDJSON frame and the API layer must turn any
// malformed line into a structured error instead of crashing.
//
// Numbers are held as double (parsed with std::from_chars, so a double
// written by JsonWriter round-trips bit-identically) plus an
// is-representable-as-int64 flag for fields that are semantically
// integers (ids, counts). A token without fraction or exponent that fits
// int64 keeps its exact integer value; other integral numbers ("3.0",
// "1e2") are integers when their double value fits int64.
//
// \uXXXX escapes are decoded to UTF-8 (surrogate pairs supported); other
// bytes pass through unvalidated, which is fine for the protocol's ASCII
// framing.
#ifndef WOT_IO_JSON_PARSER_H_
#define WOT_IO_JSON_PARSER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "wot/util/result.h"

namespace wot {

/// \brief Maximum nesting depth ParseJson accepts. Frames in the wot API
/// are at most ~4 levels deep; the cap exists so adversarial input like
/// "[[[[..." cannot overflow the parser's recursion.
inline constexpr int kMaxJsonDepth = 64;

/// \brief One parsed JSON value (recursive sum type).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  /// Accessors are valid only for the matching kind (0/empty otherwise).
  bool bool_value() const { return bool_; }
  double number_value() const { return number_; }
  /// True when the number is integral and fits int64 exactly.
  bool number_is_int() const { return number_is_int_; }
  int64_t int_value() const { return int_; }
  const std::string& string_value() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  /// Members in document order (duplicate keys are kept; Find returns the
  /// first).
  const std::vector<std::pair<std::string, JsonValue>>& object() const {
    return object_;
  }

  /// \brief Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  // --- Typed field extraction for decoding protocol frames. Each returns
  // --- an error naming \p key when the member is absent or mistyped.
  Result<int64_t> GetInt(std::string_view key) const;
  Result<double> GetDouble(std::string_view key) const;
  Result<std::string> GetString(std::string_view key) const;

  // Construction helpers used by the parser.
  static JsonValue MakeNull();
  static JsonValue MakeBool(bool value);
  static JsonValue MakeNumber(double value);
  /// An integer held exactly (number_value() is its nearest double).
  static JsonValue MakeInteger(int64_t value);
  static JsonValue MakeString(std::string value);
  static JsonValue MakeArray(std::vector<JsonValue> items);
  static JsonValue MakeObject(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  bool number_is_int_ = false;
  int64_t int_ = 0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

/// \brief Parses exactly one JSON document (surrounding whitespace
/// allowed). Returns InvalidArgument with an offset-bearing message on any
/// syntax error.
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace wot

#endif  // WOT_IO_JSON_PARSER_H_
