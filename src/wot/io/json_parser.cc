#include "wot/io/json_parser.h"

#include <charconv>
#include <cmath>
#include <cstdint>

namespace wot {

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<int64_t> JsonValue::GetInt(std::string_view key) const {
  const JsonValue* member = Find(key);
  if (member == nullptr) {
    return Status::InvalidArgument("missing field '" + std::string(key) +
                                   "'");
  }
  if (!member->is_number() || !member->number_is_int()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be an integer");
  }
  return member->int_value();
}

Result<double> JsonValue::GetDouble(std::string_view key) const {
  const JsonValue* member = Find(key);
  if (member == nullptr) {
    return Status::InvalidArgument("missing field '" + std::string(key) +
                                   "'");
  }
  if (!member->is_number()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a number");
  }
  return member->number_value();
}

Result<std::string> JsonValue::GetString(std::string_view key) const {
  const JsonValue* member = Find(key);
  if (member == nullptr) {
    return Status::InvalidArgument("missing field '" + std::string(key) +
                                   "'");
  }
  if (!member->is_string()) {
    return Status::InvalidArgument("field '" + std::string(key) +
                                   "' must be a string");
  }
  return member->string_value();
}

JsonValue JsonValue::MakeNull() { return JsonValue(); }

JsonValue JsonValue::MakeBool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::MakeNumber(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  // Integral and exactly representable both as double and int64?
  if (std::isfinite(value) && value >= -9.223372036854775808e18 &&
      value < 9.223372036854775808e18 &&
      value == std::trunc(value)) {
    v.number_is_int_ = true;
    v.int_ = static_cast<int64_t>(value);
  }
  return v;
}

JsonValue JsonValue::MakeInteger(int64_t value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(value);
  v.number_is_int_ = true;
  v.int_ = value;
  return v;
}

JsonValue JsonValue::MakeString(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::MakeArray(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::MakeObject(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.object_ = std::move(members);
  return v;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    SkipWhitespace();
    WOT_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing garbage after document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos_) + ": " + what);
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      char ch = text_[pos_];
      if (ch != ' ' && ch != '\t' && ch != '\n' && ch != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char expected) {
    if (pos_ < text_.size() && text_[pos_] == expected) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxJsonDepth) {
      return Error("nesting deeper than " + std::to_string(kMaxJsonDepth));
    }
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        WOT_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue::MakeString(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return JsonValue::MakeBool(true);
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue::MakeBool(false);
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue::MakeNull();
        return Error("invalid literal");
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    std::vector<std::pair<std::string, JsonValue>> members;
    SkipWhitespace();
    if (Consume('}')) return JsonValue::MakeObject(std::move(members));
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      WOT_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) {
        return Error("expected ':' after object key");
      }
      SkipWhitespace();
      WOT_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      members.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return JsonValue::MakeObject(std::move(members));
      return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    std::vector<JsonValue> items;
    SkipWhitespace();
    if (Consume(']')) return JsonValue::MakeArray(std::move(items));
    while (true) {
      SkipWhitespace();
      WOT_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      items.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return JsonValue::MakeArray(std::move(items));
      return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        return Error("unterminated string");
      }
      unsigned char ch = static_cast<unsigned char>(text_[pos_]);
      if (ch == '"') {
        ++pos_;
        return out;
      }
      if (ch < 0x20) {
        return Error("unescaped control character in string");
      }
      if (ch != '\\') {
        out += static_cast<char>(ch);
        ++pos_;
        continue;
      }
      ++pos_;  // backslash
      if (pos_ >= text_.size()) {
        return Error("dangling escape");
      }
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          WOT_ASSIGN_OR_RETURN(uint32_t code, ParseHex4());
          // Surrogate pair?
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                text_[pos_ + 1] == 'u') {
              pos_ += 2;
              WOT_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
              if (low < 0xDC00 || low > 0xDFFF) {
                return Error("invalid low surrogate");
              }
              code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
            } else {
              return Error("unpaired high surrogate");
            }
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      char ch = text_[pos_ + i];
      code <<= 4;
      if (ch >= '0' && ch <= '9') {
        code |= static_cast<uint32_t>(ch - '0');
      } else if (ch >= 'a' && ch <= 'f') {
        code |= static_cast<uint32_t>(ch - 'a' + 10);
      } else if (ch >= 'A' && ch <= 'F') {
        code |= static_cast<uint32_t>(ch - 'A' + 10);
      } else {
        return Error("invalid hex digit in \\u escape");
      }
    }
    pos_ += 4;
    return code;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      *out += static_cast<char>(code);
    } else if (code < 0x800) {
      *out += static_cast<char>(0xC0 | (code >> 6));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else if (code < 0x10000) {
      *out += static_cast<char>(0xE0 | (code >> 12));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (code >> 18));
      *out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (code & 0x3F));
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (Consume('-')) {
      // sign consumed
    }
    if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
      return Error("invalid number");
    }
    // Leading zero may not be followed by more digits (strict JSON).
    if (text_[pos_] == '0' && pos_ + 1 < text_.size() &&
        text_[pos_ + 1] >= '0' && text_[pos_ + 1] <= '9') {
      return Error("leading zero in number");
    }
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    // An integral token that fits int64 is parsed as one: through double
    // it would be rounded above 2^53.
    bool integral = true;
    if (Consume('.')) {
      integral = false;
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("digits required after decimal point");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      integral = false;
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (pos_ >= text_.size() || text_[pos_] < '0' || text_[pos_] > '9') {
        return Error("digits required in exponent");
      }
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
    }
    std::string_view token = text_.substr(start, pos_ - start);
    const char* end = token.data() + token.size();
    // "-0" takes the double path, which keeps its sign.
    if (integral && token != "-0") {
      int64_t exact = 0;
      std::from_chars_result r = std::from_chars(token.data(), end, exact);
      if (r.ec == std::errc() && r.ptr == end) {
        return JsonValue::MakeInteger(exact);
      }
    }
    double value = 0.0;
    std::from_chars_result r = std::from_chars(token.data(), end, value);
    if (r.ec == std::errc::result_out_of_range) {
      // Overflowing literals clamp to +/-HUGE_VAL per from_chars; a
      // non-finite number is not representable in JSON, so reject.
      return Error("number out of range");
    }
    if (r.ec != std::errc() || r.ptr != end) {
      return Error("invalid number");
    }
    return JsonValue::MakeNumber(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace wot
