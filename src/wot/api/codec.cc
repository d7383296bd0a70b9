#include "wot/api/codec.h"

#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "wot/api/wire_schema.h"
#include "wot/io/json_parser.h"
#include "wot/io/json_writer.h"

namespace wot {
namespace api {
namespace {

// Replication artifact bytes are arbitrary binary; on the NDJSON wire
// they travel hex-encoded (the v2 binary framing carries them raw).
std::string HexEncode(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (unsigned char b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

bool HexDecode(std::string_view hex, std::string* out) {
  if (hex.size() % 2 != 0) return false;
  out->clear();
  out->reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return false;
    out->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

// The NDJSON writer of the wire schema: each field becomes an object
// member.
class JsonFieldWriter {
 public:
  explicit JsonFieldWriter(JsonWriter* w) : w_(*w) {}

  template <class T>
  void operator()(const char* name, const T& field) {
    w_.Key(name);
    Value(field);
  }
  template <class T>
  void Optional(const char* name, const T& field, bool emit = true) {
    if (emit) (*this)(name, field);
  }
  void Bytes(const char* name, const std::string& bytes) {
    w_.Key(name).String(HexEncode(bytes));
  }

 private:
  void Value(const std::string& v) { w_.String(v); }
  void Value(int64_t v) { w_.Int(v); }
  void Value(uint64_t v) { w_.UInt(v); }
  void Value(uint32_t v) { w_.UInt(v); }
  void Value(double v) { w_.Double(v); }
  void Value(bool v) { w_.Bool(v); }
  template <class T>
  void Value(const std::vector<T>& items) {
    w_.BeginArray();
    for (const T& item : items) Value(item);
    w_.EndArray();
  }
  template <class M>
    requires std::is_class_v<M>
  void Value(const M& message) {
    w_.BeginObject();
    WriteFields(*this, message);
    w_.EndObject();
  }

  JsonWriter& w_;
};

// The NDJSON reader of the wire schema: fills fields from the members of
// one JSON object. The first error sticks and later fields are skipped.
class JsonFieldReader {
 public:
  JsonFieldReader(const JsonValue& object, ApiStatus* status)
      : object_(object), status_(*status) {}

  template <class T>
  void operator()(const char* name, T& field) {
    if (!status_.ok()) return;
    const JsonValue* member = object_.Find(name);
    if (member == nullptr) {
      status_ = ApiStatus::InvalidArgument(std::string("missing field '") +
                                           name + "'");
      return;
    }
    Read(name, *member, &field);
  }
  template <class T>
  void Optional(const char* name, T& field, bool = true) {
    if (object_.Find(name) != nullptr) (*this)(name, field);
  }
  void Bytes(const char* name, std::string& bytes) {
    std::string hex;
    (*this)(name, hex);
    if (status_.ok() && !HexDecode(hex, &bytes)) {
      Mistyped(name, "a hex-encoded byte string");
    }
  }

 private:
  void Mistyped(const char* name, const char* expected) {
    status_ = ApiStatus::InvalidArgument(std::string("field '") + name +
                                         "' must be " + expected);
  }

  void Read(const char* name, const JsonValue& v, std::string* out) {
    if (!v.is_string()) return Mistyped(name, "a string");
    *out = v.string_value();
  }
  void Read(const char* name, const JsonValue& v, int64_t* out) {
    if (!v.is_number() || !v.number_is_int()) {
      return Mistyped(name, "an integer");
    }
    *out = v.int_value();
  }
  void Read(const char* name, const JsonValue& v, uint64_t* out) {
    if (!v.is_number() || !v.number_is_int() || v.int_value() < 0) {
      return Mistyped(name, "a non-negative integer");
    }
    *out = static_cast<uint64_t>(v.int_value());
  }
  void Read(const char* name, const JsonValue& v, uint32_t* out) {
    if (!v.is_number() || !v.number_is_int() || v.int_value() < 0 ||
        v.int_value() > UINT32_MAX) {
      return Mistyped(name, "a 32-bit unsigned integer");
    }
    *out = static_cast<uint32_t>(v.int_value());
  }
  void Read(const char* name, const JsonValue& v, double* out) {
    if (!v.is_number()) return Mistyped(name, "a number");
    *out = v.number_value();
  }
  void Read(const char* name, const JsonValue& v, bool* out) {
    if (!v.is_bool()) return Mistyped(name, "a bool");
    *out = v.bool_value();
  }
  template <class T>
  void Read(const char* name, const JsonValue& v, std::vector<T>* out) {
    if (!v.is_array()) return Mistyped(name, "an array");
    for (const JsonValue& item : v.array()) {
      Read(name, item, &out->emplace_back());
      if (!status_.ok()) return;
    }
  }
  template <class M>
    requires std::is_class_v<M>
  void Read(const char*, const JsonValue& v, M* message) {
    JsonFieldReader nested(v, &status_);
    Fields(nested, *message);
  }

  const JsonValue& object_;
  ApiStatus& status_;
};

// Index of \p name in \p names, or std::size(names) when absent.
template <size_t N>
size_t IndexOf(const char* const (&names)[N], std::string_view name) {
  size_t i = 0;
  while (i < N && name != names[i]) ++i;
  return i;
}

// Pulls the optional envelope integers out of a (possibly partial) frame
// so error responses can still be correlated.
void SalvageEnvelope(const JsonValue& root, Request* request) {
  if (!root.is_object()) return;
  const JsonValue* id = root.Find("id");
  if (id != nullptr && id->is_number() && id->number_is_int()) {
    request->id = id->int_value();
  }
  const JsonValue* version = root.Find("v");
  if (version != nullptr && version->is_number() &&
      version->number_is_int()) {
    request->version = version->int_value();
  }
}

}  // namespace

std::string EncodeRequest(const Request& request) {
  JsonWriter w;
  w.BeginObject();
  w.Key("v").Int(request.version);
  w.Key("id").Int(request.id);
  w.Key("method").String(MethodName(request.payload));
  JsonFieldWriter fields(&w);
  w.Key("params").BeginObject();
  WritePayload(fields, request.payload);
  w.EndObject();
  w.EndObject();
  return w.str();
}

std::string EncodeResponse(const Response& response) {
  JsonWriter w;
  w.BeginObject();
  w.Key("v").Int(response.version);
  w.Key("id").Int(response.id);
  w.Key("status").String(ApiCodeName(response.status.code));
  if (!response.status.ok()) {
    w.Key("error").String(response.status.message);
  } else if (response.payload.index() != 0) {
    w.Key("result_type").String(kResultTypeNames[response.payload.index()]);
    JsonFieldWriter fields(&w);
    w.Key("result").BeginObject();
    WritePayload(fields, response.payload);
    w.EndObject();
  }
  w.EndObject();
  return w.str();
}

ApiStatus DecodeRequest(std::string_view line, Request* request) {
  *request = Request{};
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    return ApiStatus::InvalidArgument("malformed frame: " +
                                      parsed.status().message());
  }
  const JsonValue& root = parsed.ValueOrDie();
  if (!root.is_object()) {
    return ApiStatus::InvalidArgument("frame must be a JSON object");
  }
  SalvageEnvelope(root, request);
  if (root.Find("v") == nullptr) {
    return ApiStatus::InvalidArgument(
        "missing protocol version field 'v'");
  }
  Result<int64_t> version = root.GetInt("v");
  if (!version.ok()) {
    // Present but mistyped — report that, not "missing".
    return ApiStatus::InvalidArgument("protocol version " +
                                      version.status().message());
  }
  if (version.ValueOrDie() != kProtocolVersion) {
    return ApiStatus::InvalidArgument(
        "unsupported protocol version " +
        std::to_string(version.ValueOrDie()) + " (this server speaks v" +
        std::to_string(kProtocolVersion) + ")");
  }
  const JsonValue* id = root.Find("id");
  if (id != nullptr && (!id->is_number() || !id->number_is_int())) {
    return ApiStatus::InvalidArgument("'id' must be an integer");
  }
  Result<std::string> method = root.GetString("method");
  if (!method.ok()) {
    return ApiStatus::FromStatus(method.status());
  }
  static const JsonValue kEmptyParams = JsonValue::MakeObject({});
  const JsonValue* params = root.Find("params");
  if (params == nullptr) {
    params = &kEmptyParams;  // parameterless methods may omit the object
  } else if (!params->is_object()) {
    return ApiStatus::InvalidArgument("'params' must be an object");
  }
  const size_t index = IndexOf(kMethodNames, method.ValueOrDie());
  if (index == std::size(kMethodNames)) {
    return ApiStatus::Unimplemented("unknown method '" +
                                    method.ValueOrDie() + "'");
  }
  ApiStatus status = ApiStatus::Ok();
  JsonFieldReader fields(*params, &status);
  ReadPayload(fields, index, &request->payload);
  return status;
}

ApiStatus DecodeResponse(std::string_view line, Response* response) {
  *response = Response{};
  Result<JsonValue> parsed = ParseJson(line);
  if (!parsed.ok()) {
    return ApiStatus::InvalidArgument("malformed frame: " +
                                      parsed.status().message());
  }
  const JsonValue& root = parsed.ValueOrDie();
  if (!root.is_object()) {
    return ApiStatus::InvalidArgument("frame must be a JSON object");
  }
  Result<int64_t> version = root.GetInt("v");
  if (!version.ok()) return ApiStatus::FromStatus(version.status());
  response->version = version.ValueOrDie();
  Result<int64_t> id = root.GetInt("id");
  if (!id.ok()) return ApiStatus::FromStatus(id.status());
  response->id = id.ValueOrDie();
  Result<std::string> code_name = root.GetString("status");
  if (!code_name.ok()) return ApiStatus::FromStatus(code_name.status());
  Result<ApiCode> code = ApiCodeFromName(code_name.ValueOrDie());
  if (!code.ok()) return ApiStatus::FromStatus(code.status());
  response->status.code = code.ValueOrDie();
  if (!response->status.ok()) {
    Result<std::string> error = root.GetString("error");
    if (error.ok()) {
      response->status.message = std::move(error).ValueOrDie();
    }
    return ApiStatus::Ok();  // the *frame* decoded fine
  }
  const JsonValue* result_type = root.Find("result_type");
  if (result_type == nullptr) {
    response->payload = std::monostate{};  // e.g. a bare OK
    return ApiStatus::Ok();
  }
  if (!result_type->is_string()) {
    return ApiStatus::InvalidArgument("'result_type' must be a string");
  }
  const JsonValue* result = root.Find("result");
  if (result == nullptr || !result->is_object()) {
    return ApiStatus::InvalidArgument("missing 'result' object");
  }
  // Index 0 (the empty response) has no result_type.
  const size_t index =
      IndexOf(kResultTypeNames, result_type->string_value());
  if (index == 0 || index == std::size(kResultTypeNames)) {
    return ApiStatus::InvalidArgument("unknown result_type '" +
                                      result_type->string_value() + "'");
  }
  ApiStatus status = ApiStatus::Ok();
  JsonFieldReader fields(*result, &status);
  ReadPayload(fields, index, &response->payload);
  return status;
}

}  // namespace api
}  // namespace wot
