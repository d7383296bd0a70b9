// Shared wire samples: one Request per RequestPayload alternative and one
// Response per ResponsePayload alternative, plus the wire-rule edge cases
// (a StatsResult whose optional NDJSON groups are omitted, an error
// response). The golden wire test pins the exact bytes of every sample in
// both framings; the fuzz suite mutates their encodings. Adding a method
// or result type to api.h fails the static_asserts below until a sample
// is added here, so a new message is pinned and fuzzed from day one.
//
// Request strings are refs into testing::TinyCommunity so the fuzzer's
// unmutated seeds reach real handlers.
#ifndef WOT_TESTS_TESTING_WIRE_SAMPLES_H_
#define WOT_TESTS_TESTING_WIRE_SAMPLES_H_

#include <array>
#include <string>
#include <variant>

#include "wot/api/api.h"

namespace wot {
namespace testing {

/// Sample i holds RequestPayload alternative i; ids are i + 1.
inline auto SampleRequests() {
  using namespace api;
  auto requests = std::to_array<Request>({
      {kProtocolVersion, 1, TrustQuery{"u0", "u1"}},
      {kProtocolVersion, 2, TopKQuery{"0", 3}},
      {kProtocolVersion, 3, ExplainQuery{"u2", "u0"}},
      {kProtocolVersion, 4, IngestUser{"fuzz \"quoted\"\\\n\x01"}},
      {kProtocolVersion, 5, IngestCategory{"c"}},
      {kProtocolVersion, 6, IngestObject{"movies", "o"}},
      {kProtocolVersion, 7, IngestReview{"u3", 0}},
      {kProtocolVersion, 8, IngestRating{"u3", 1, 0.8}},
      {kProtocolVersion, 9, CommitRequest{}},
      {kProtocolVersion, 10, StatsRequest{}},
      {kProtocolVersion, 11, MetricsRequest{}},
      {kProtocolVersion, 12,
       ReplFetchRequest{/*shard=*/0, /*applied_version=*/3,
                        /*offset=*/4503599627370496}},
      {kProtocolVersion, 13, ReplStatusRequest{}},
      {kProtocolVersion, -14, ReplPromoteRequest{}},
  });
  static_assert(requests.size() == std::variant_size_v<RequestPayload>,
                "add a sample for every RequestPayload alternative");
  return requests;
}

inline api::StatsResult SampleStats(bool sharded_and_durable) {
  api::StatsResult stats;
  stats.snapshot_version = 4;
  stats.users = 100;
  stats.categories = 7;
  stats.reviews = 300;
  stats.ratings = 900;
  stats.service_boots = 1;
  stats.requests_served = 55;
  stats.connections_active = 2;
  stats.connections_accepted = 11;
  stats.connection_requests_served = 5;
  if (sharded_and_durable) {
    stats.service_boots = 3;
    stats.shards = 3;
    stats.shard_service_boots = {1, 1, 1};
    stats.shard_requests_served = {20, 18, 17};
    stats.wal_records = 42;
    stats.wal_bytes = 1337;
    stats.segment_epoch = 4;
    stats.segment_bytes = 65536;
    stats.recovered_replayed_records = 17;
  }
  return stats;
}

/// Samples 0..variant_size-1 hold ResponsePayload alternative i (the
/// StatsResult with both optional groups present); then the StatsResult
/// with both groups omitted on NDJSON, then an error response.
inline auto SampleResponses() {
  using namespace api;
  TopKResult topk{"u2", {{0, "u0", 0.9}, {4294967295u, "u1", -0.25}}, 6};
  ExplainResult explain{0.5, 1.5, "u2", "u0",
                        {{1, "books", 0.4, 0.6, 0.24},
                         {0, "movies", 1e-300, 1.0 / 3.0, 0.0}},
                        6};
  MetricsResult metrics{
      7,
      {{"api.requests", 12}, {"api.errors", 0}},
      {{"server.connections", -1}},
      {{"api.trust_ns", 3, 4500, 1000, 2048, 1024.0, 2048.0, 2048.0,
        2048.0}}};
  ReplFetchResult fetch{/*kind=*/1, 2, 2, 5, /*offset=*/0, /*total_bytes=*/3,
                        std::string("\x00\xff\n", 3)};
  ReplStatusResult status{/*role=*/2, 8, 9, 1,
                          {{0, "/tmp/replica.sock", 8, 1},
                           {1, "", 0, 0}}};
  auto responses = std::to_array<Response>({
      {kProtocolVersion, 1, ApiStatus::Ok(), std::monostate{}},
      {kProtocolVersion, 2, ApiStatus::Ok(), TrustResult{0.1, "u2", "u0", 3}},
      {kProtocolVersion, 3, ApiStatus::Ok(), topk},
      {kProtocolVersion, 4, ApiStatus::Ok(), explain},
      {kProtocolVersion, 5, ApiStatus::Ok(), IngestResult{-1}},
      {kProtocolVersion, 6, ApiStatus::Ok(), CommitResult{9, true, 3, 14, 2}},
      {kProtocolVersion, 7, ApiStatus::Ok(), SampleStats(true)},
      {kProtocolVersion, 8, ApiStatus::Ok(), metrics},
      {kProtocolVersion, 9, ApiStatus::Ok(), fetch},
      {kProtocolVersion, 10, ApiStatus::Ok(), status},
      {kProtocolVersion, 11, ApiStatus::Ok(), SampleStats(false)},
      {kProtocolVersion, 12, ApiStatus::NotFound("no user 'zed' \"\n\""),
       std::monostate{}},
  });
  static_assert(responses.size() == std::variant_size_v<ResponsePayload> + 2,
                "add a sample for every ResponsePayload alternative");
  return responses;
}

}  // namespace testing
}  // namespace wot

#endif  // WOT_TESTS_TESTING_WIRE_SAMPLES_H_
