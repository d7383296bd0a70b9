// Golden wire bytes: the exact NDJSON line and binary frame of every
// shared wire sample (tests/testing/wire_samples.h), and the exact replies
// a frontend sends to malformed requests. Round-trip tests cannot catch a
// change made consistently to an encoder and its decoder (a field
// reorder, a renamed key, a different integer width); these can. A
// failure here means the wire changed: old peers would misread the new
// bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "testing/fixtures.h"
#include "testing/wire_samples.h"
#include "wot/api/binary_codec.h"
#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/service/trust_service.h"

namespace wot {
namespace api {
namespace {

std::string Hex(std::string_view bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (unsigned char b : bytes) {
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xF]);
  }
  return hex;
}

struct Golden {
  const char* ndjson;
  const char* binary_hex;
};

// Index-aligned with testing::SampleRequests().
constexpr Golden kRequestGoldens[] = {
    {R"({"v":1,"id":1,"method":"trust","params":{"source":"u0","target":"u1"}})",
     "b202000001000000000000000c000000020000007530020000007531"
    },
    {R"({"v":1,"id":2,"method":"topk","params":{"source":"0","k":3}})",
     "b202010002000000000000000d00000001000000300300000000000000"
    },
    {R"({"v":1,"id":3,"method":"explain","params":{"source":"u2","target":"u0"}})",
     "b202020003000000000000000c000000020000007532020000007530"
    },
    {R"({"v":1,"id":4,"method":"ingest_user","params":{"name":"fuzz \"quoted\"\\\n\u0001"}})",
     "b20203000400000000000000140000001000000066757a7a202271756f746564"
     "225c0a01"
    },
    {R"({"v":1,"id":5,"method":"ingest_category","params":{"name":"c"}})",
     "b20204000500000000000000050000000100000063"
    },
    {R"({"v":1,"id":6,"method":"ingest_object","params":{"category":"movies","name":"o"}})",
     "b202050006000000000000000f000000060000006d6f76696573010000006f"
    },
    {R"({"v":1,"id":7,"method":"ingest_review","params":{"writer":"u3","object":0}})",
     "b202060007000000000000000e0000000200000075330000000000000000"
    },
    {R"({"v":1,"id":8,"method":"ingest_rating","params":{"rater":"u3","review":1,"value":0.8}})",
     "b202070008000000000000001600000002000000753301000000000000009a99"
     "99999999e93f"
    },
    {R"({"v":1,"id":9,"method":"commit","params":{}})",
     "b2020800090000000000000000000000"
    },
    {R"({"v":1,"id":10,"method":"stats","params":{}})",
     "b20209000a0000000000000000000000"
    },
    {R"({"v":1,"id":11,"method":"metrics","params":{}})",
     "b2020a000b0000000000000000000000"
    },
    {R"({"v":1,"id":12,"method":"repl_fetch","params":{"shard":0,"applied_version":3,"offset":4503599627370496}})",
     "b2020b000c000000000000001800000000000000000000000300000000000000"
     "0000000000001000"
    },
    {R"({"v":1,"id":13,"method":"repl_status","params":{}})",
     "b2020c000d0000000000000000000000"
    },
    {R"({"v":1,"id":-14,"method":"repl_promote","params":{}})",
     "b2020d00f2ffffffffffffff00000000"
    }
};

// Index-aligned with testing::SampleResponses().
constexpr Golden kResponseGoldens[] = {
    {R"({"v":1,"id":1,"status":"OK"})",
     "b2020000010000000000000000000000"
    },
    {R"({"v":1,"id":2,"status":"OK","result_type":"trust","result":{"trust":0.1,"source_name":"u2","target_name":"u0","snapshot_version":3}})",
     "b202000102000000000000001c0000009a9999999999b93f0200000075320200"
     "000075300300000000000000"
    },
    {R"({"v":1,"id":3,"status":"OK","result_type":"topk","result":{"source_name":"u2","trustees":[{"user":0,"name":"u0","score":0.9},{"user":4294967295,"name":"u1","score":-0.25}],"snapshot_version":6}})",
     "b202000203000000000000003600000002000000753202000000000000000200"
     "00007530cdccccccccccec3fffffffff020000007531000000000000d0bf0600"
     "000000000000"
    },
    {R"({"v":1,"id":4,"status":"OK","result_type":"explain","result":{"trust":0.5,"affinity_sum":1.5,"source_name":"u2","target_name":"u0","terms":[{"category":1,"category_name":"books","affiliation":0.4,"expertise":0.6,"contribution":0.24},{"category":0,"category_name":"movies","affiliation":1e-300,"expertise":0.3333333333333333,"contribution":0}],"snapshot_version":6}})",
     "b2020003040000000000000073000000000000000000e03f000000000000f83f"
     "020000007532020000007530020000000100000005000000626f6f6b739a9999"
     "999999d93f333333333333e33fb81e85eb51b8ce3f00000000060000006d6f76"
     "69657359f3f8c21f6ea501555555555555d53f00000000000000000600000000"
     "000000"
    },
    {R"({"v":1,"id":5,"status":"OK","result_type":"ingest","result":{"assigned_id":-1}})",
     "b2020004050000000000000008000000ffffffffffffffff"
    },
    {R"({"v":1,"id":6,"status":"OK","result_type":"commit","result":{"snapshot_version":9,"published":true,"categories_recomputed":3,"affiliation_rows_recomputed":14,"postings_rebuilt":2}})",
     "b202000506000000000000002100000009000000000000000103000000000000"
     "000e000000000000000200000000000000"
    },
    {R"({"v":1,"id":7,"status":"OK","result_type":"stats","result":{"snapshot_version":4,"users":100,"categories":7,"reviews":300,"ratings":900,"service_boots":3,"requests_served":55,"connections_active":2,"connections_accepted":11,"connection_requests_served":5,"shards":3,"shard_service_boots":[1,1,1],"shard_requests_served":[20,18,17],"wal_records":42,"wal_bytes":1337,"segment_epoch":4,"segment_bytes":65536,"recovered_replayed_records":17}})",
     "b20200060700000000000000b800000004000000000000006400000000000000"
     "07000000000000002c0100000000000084030000000000000300000000000000"
     "370000000000000002000000000000000b000000000000000500000000000000"
     "0300000000000000030000000100000000000000010000000000000001000000"
     "0000000003000000140000000000000012000000000000001100000000000000"
     "2a00000000000000390500000000000004000000000000000000010000000000"
     "1100000000000000"
    },
    {R"({"v":1,"id":8,"status":"OK","result_type":"metrics","result":{"snapshot_version":7,"counters":[{"name":"api.requests","value":12},{"name":"api.errors","value":0}],"gauges":[{"name":"server.connections","value":-1}],"histograms":[{"name":"api.trust_ns","count":3,"sum":4500,"min":1000,"max":2048,"p50":1024,"p90":2048,"p99":2048,"p999":2048}]}})",
     "b20200070800000000000000b00000000700000000000000020000000c000000"
     "6170692e72657175657374730c000000000000000a0000006170692e6572726f"
     "7273000000000000000001000000120000007365727665722e636f6e6e656374"
     "696f6e73ffffffffffffffff010000000c0000006170692e74727573745f6e73"
     "03000000000000009411000000000000e8030000000000000008000000000000"
     "0000000000009040000000000000a040000000000000a040000000000000a040"
    },
    {R"({"v":1,"id":9,"status":"OK","result_type":"repl_fetch","result":{"kind":1,"base_version":2,"target_version":2,"source_version":5,"offset":0,"total_bytes":3,"payload":"00ff0a"}})",
     "b202000809000000000000003700000001000000000000000200000000000000"
     "0200000000000000050000000000000000000000000000000300000000000000"
     "0300000000ff0a"
    },
    {R"({"v":1,"id":10,"status":"OK","result_type":"repl_status","result":{"role":2,"applied_version":8,"source_version":9,"failovers":1,"replicas":[{"shard":0,"address":"/tmp/replica.sock","applied_version":8,"healthy":1},{"shard":1,"address":"","applied_version":0,"healthy":0}]}})",
     "b20200090a000000000000006d00000002000000000000000800000000000000"
     "0900000000000000010000000000000002000000000000000000000011000000"
     "2f746d702f7265706c6963612e736f636b080000000000000001000000000000"
     "0001000000000000000000000000000000000000000000000000000000"
    },
    {R"({"v":1,"id":11,"status":"OK","result_type":"stats","result":{"snapshot_version":4,"users":100,"categories":7,"reviews":300,"ratings":900,"service_boots":1,"requests_served":55,"connections_active":2,"connections_accepted":11,"connection_requests_served":5}})",
     "b20200060b000000000000008800000004000000000000006400000000000000"
     "07000000000000002c0100000000000084030000000000000100000000000000"
     "370000000000000002000000000000000b000000000000000500000000000000"
     "0000000000000000000000000000000000000000000000000000000000000000"
     "000000000000000000000000000000000000000000000000"
    },
    {R"({"v":1,"id":12,"status":"NOT_FOUND","error":"no user 'zed' \"\n\""})",
     "b20201000c0000000000000015000000110000006e6f207573657220277a6564"
     "2720220a22"
    }
};

TEST(WireGoldenTest, SamplesCoverEveryAlternativeInVariantOrder) {
  const auto requests = testing::SampleRequests();
  for (size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(requests[i].payload.index(), i);
  }
  const auto responses = testing::SampleResponses();
  for (size_t i = 0; i < std::variant_size_v<ResponsePayload>; ++i) {
    EXPECT_EQ(responses[i].payload.index(), i);
  }
}

TEST(WireGoldenTest, RequestBytesArePinned) {
  const auto requests = testing::SampleRequests();
  ASSERT_EQ(std::size(kRequestGoldens), requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    const Request& request = requests[i];
    const Golden& golden = kRequestGoldens[i];
    SCOPED_TRACE(MethodName(request.payload));
    EXPECT_EQ(EncodeRequest(request), golden.ndjson);
    EXPECT_EQ(Hex(EncodeRequestBinary(request)), golden.binary_hex);

    Request decoded;
    ApiStatus status = DecodeRequest(golden.ndjson, &decoded);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded, request);
    status = DecodeRequestBinary(EncodeRequestBinary(request), &decoded);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded, request);
  }
}

TEST(WireGoldenTest, ResponseBytesArePinned) {
  const auto responses = testing::SampleResponses();
  ASSERT_EQ(std::size(kResponseGoldens), responses.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    const Response& response = responses[i];
    const Golden& golden = kResponseGoldens[i];
    SCOPED_TRACE("response sample " + std::to_string(i));
    EXPECT_EQ(EncodeResponse(response), golden.ndjson);
    EXPECT_EQ(Hex(EncodeResponseBinary(response)), golden.binary_hex);

    Response decoded;
    ApiStatus status = DecodeResponse(golden.ndjson, &decoded);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded, response);
    status = DecodeResponseBinary(EncodeResponseBinary(response), &decoded);
    EXPECT_TRUE(status.ok()) << status.ToString();
    EXPECT_EQ(decoded, response);
  }
}

// Server-produced request-decode errors are wire bytes too: clients and
// logs match on their text.
class MalformedRequestGoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = TrustService::Create(testing::TinyCommunity()).ValueOrDie();
    frontend_ = std::make_unique<ServiceFrontend>(service_.get());
  }

  // The exact v2 error frame: header, then the message as a u32-length-
  // prefixed string.
  static std::string BinaryError(ApiCode code, int64_t id,
                                 std::string_view message) {
    auto le = [](uint64_t v, int bytes) {
      std::string out;
      for (int i = 0; i < bytes; ++i) {
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
      }
      return out;
    };
    std::string frame = "\xB2\x02";
    frame.push_back(static_cast<char>(code));
    frame.push_back('\0');
    frame += le(static_cast<uint64_t>(id), 8);
    frame += le(message.size() + 4, 4);
    frame += le(message.size(), 4);
    frame += message;
    return frame;
  }

  // The trust sample's binary frame, re-addressed to \p id.
  static std::string TrustFrame(int64_t id) {
    Request request = testing::SampleRequests()[0];
    request.id = id;
    return EncodeRequestBinary(request);
  }

  std::unique_ptr<TrustService> service_;
  std::unique_ptr<ServiceFrontend> frontend_;
};

TEST_F(MalformedRequestGoldenTest, NdjsonRepliesArePinned) {
  struct Case {
    const char* line;
    const char* reply;
  };
  const Case cases[] = {
      {R"({"v":1,"id":21,"method":"trust","params":{"source":"u0"}})",
       R"({"v":1,"id":21,"status":"INVALID_ARGUMENT","error":"missing field 'target'"})"},
      {R"({"v":1,"id":22,"method":"topk","params":{"source":"u0","k":"3"}})",
       R"({"v":1,"id":22,"status":"INVALID_ARGUMENT","error":"field 'k' must be an integer"})"},
      {R"({"v":1,"id":23,"method":"nope","params":{}})",
       R"({"v":1,"id":23,"status":"UNIMPLEMENTED","error":"unknown method 'nope'"})"},
      {R"({"v":1,"id":24,"method":"trust","params":[]})",
       R"({"v":1,"id":24,"status":"INVALID_ARGUMENT","error":"'params' must be an object"})"},
      {R"({"v":1,"id":25,"method":"ingest_rating","params":{"rater":"u3","review":1,"value":true}})",
       R"({"v":1,"id":25,"status":"INVALID_ARGUMENT","error":"field 'value' must be a number"})"},
      {R"({"v":1,"id":26,"method":"topk","params":{"source":"u0","k":2.5}})",
       R"({"v":1,"id":26,"status":"INVALID_ARGUMENT","error":"field 'k' must be an integer"})"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(frontend_->DispatchLine(c.line), c.reply) << c.line;
  }
}

TEST_F(MalformedRequestGoldenTest, BinaryRepliesArePinned) {
  // Torn header: too short to carry an id, so the reply's id is 0.
  EXPECT_EQ(frontend_->DispatchFrame(TrustFrame(31).substr(0, 10)),
            BinaryError(ApiCode::kInvalidArgument, 0,
                        "truncated binary frame: 10 bytes is shorter than "
                        "the 16-byte header"));

  // Truncated payload under a consistent length prefix.
  std::string truncated = TrustFrame(32).substr(0, kBinaryHeaderSize + 6);
  truncated[12] = 6;
  EXPECT_EQ(frontend_->DispatchFrame(truncated),
            BinaryError(ApiCode::kInvalidArgument, 32,
                        "malformed 'trust' payload"));

  // Trailing payload bytes under a consistent length prefix.
  std::string trailing = TrustFrame(33) + '\xFF';
  ++trailing[12];
  EXPECT_EQ(frontend_->DispatchFrame(trailing),
            BinaryError(ApiCode::kInvalidArgument, 33,
                        "malformed 'trust' payload"));

  // Length prefix that disagrees with the bytes received.
  std::string short_length = TrustFrame(34) + '\xFF';
  EXPECT_EQ(frontend_->DispatchFrame(short_length),
            BinaryError(ApiCode::kInvalidArgument, 34,
                        "frame payload length 12 does not match the 13 "
                        "payload bytes received"));

  // Unknown method code.
  std::string unknown = TrustFrame(35).substr(0, kBinaryHeaderSize);
  unknown[2] = '\xEE';
  unknown[12] = 0;
  EXPECT_EQ(frontend_->DispatchFrame(unknown),
            BinaryError(ApiCode::kUnimplemented, 35,
                        "unknown method code 238"));
}

}  // namespace
}  // namespace api
}  // namespace wot
