// NDJSON integers are exact: an integral token keeps its int64 value
// instead of passing through double (which rounds above 2^53), and
// unsigned fields reject negative integers instead of wrapping them.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <variant>

#include "testing/fixtures.h"
#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/io/json_parser.h"
#include "wot/service/trust_service.h"

namespace wot {
namespace api {
namespace {

TEST(NdjsonIntegerTest, IdAbove2To53EchoesExactly) {
  std::unique_ptr<TrustService> service =
      TrustService::Create(testing::TinyCommunity()).ValueOrDie();
  ServiceFrontend frontend(service.get());
  for (const char* id : {"9007199254740993", "-9007199254740993",
                         "9223372036854775807", "-9223372036854775808"}) {
    std::string reply = frontend.DispatchLine(
        std::string(R"({"v":1,"id":)") + id + R"(,"method":"stats"})");
    EXPECT_TRUE(reply.starts_with(std::string(R"({"v":1,"id":)") + id +
                                  R"(,"status":"OK")"))
        << reply;
  }
}

TEST(NdjsonIntegerTest, ParserKeepsIntegralTokensExact) {
  JsonValue big = ParseJson("9007199254740993").ValueOrDie();
  ASSERT_TRUE(big.number_is_int());
  EXPECT_EQ(big.int_value(), 9007199254740993);
  // Non-integral spellings of an integer are still integers.
  JsonValue three = ParseJson("3.0").ValueOrDie();
  ASSERT_TRUE(three.number_is_int());
  EXPECT_EQ(three.int_value(), 3);
  // Past int64 an integral token is a (non-integer) double.
  EXPECT_FALSE(ParseJson("9223372036854775808").ValueOrDie().number_is_int());
  // "-0" keeps its sign as a double.
  EXPECT_TRUE(std::signbit(ParseJson("-0").ValueOrDie().number_value()));
}

TEST(NdjsonIntegerTest, NegativeUnsignedFieldIsRejected) {
  Request request;
  ApiStatus status = DecodeRequest(
      R"({"v":1,"id":3,"method":"repl_fetch","params":{"applied_version":-1}})",
      &request);
  EXPECT_EQ(status.code, ApiCode::kInvalidArgument);
  EXPECT_EQ(status.message,
            "field 'applied_version' must be a non-negative integer");
  EXPECT_EQ(request.id, 3);

  Response response;
  status = DecodeResponse(
      R"({"v":1,"id":4,"status":"OK","result_type":"trust","result":)"
      R"({"trust":0.5,"source_name":"a","target_name":"b",)"
      R"("snapshot_version":-2}})",
      &response);
  EXPECT_EQ(status.code, ApiCode::kInvalidArgument);
}

}  // namespace
}  // namespace api
}  // namespace wot
