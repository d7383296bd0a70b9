// The ShardRouter's replica-read contract, pinned with a scripted replica
// on a 2-shard router. For trust and topk alike:
//
//   * answers are byte-identical to a router without replicas, whatever
//     the replica does;
//   * router.replica_reads counts only the reads a replica served;
//   * repl_status reports a replica unhealthy only after a transport
//     failure (Forward -> nullopt), never after an error response;
//   * a replica below its shard's read floor never serves.
//
// Also: a router with a replica no longer lets transports run its reads
// inline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/api/replica_handle.h"
#include "wot/api/shard_router.h"
#include "wot/synth/generator.h"

namespace wot {
namespace api {
namespace {

constexpr size_t kShards = 2;

enum class Script {
  kCaughtUp,          // applied = the shard's version; serves reads
  kTransportFailure,  // Forward returns nullopt
  kErrorResponse,     // Forward returns an error Response
  kStale,             // applied = one below the shard's read floor
};

enum class Method { kTrust, kTopK };

/// A replica of one shard whose Poll and Forward follow a script. A
/// serving replica answers from a ServiceFrontend over the primary's own
/// service, so its answers are the primary's.
class ScriptedReplica : public ReplicaHandle {
 public:
  ScriptedReplica(TrustService* shard, Script script)
      : shard_(shard), frontend_(shard), script_(script) {}

  ReplicaProbe Poll() override {
    const uint64_t version = shard_->Snapshot()->version();
    return {script_ == Script::kStale ? version - 1 : version, true};
  }

  std::optional<Response> Forward(const Request& request) override {
    forwards.fetch_add(1);
    switch (script_) {
      case Script::kTransportFailure:
        return std::nullopt;
      case Script::kErrorResponse:
        return ErrorResponse(ApiStatus::Internal("scripted replica error"));
      case Script::kCaughtUp:
      case Script::kStale:
        break;
    }
    served.fetch_add(1);
    return frontend_.Dispatch(request);
  }

  const std::string& address() const override { return address_; }

  std::atomic<int64_t> forwards{0};
  std::atomic<int64_t> served{0};

 private:
  TrustService* shard_;
  ServiceFrontend frontend_;
  Script script_;
  std::string address_ = "scripted";
};

Dataset Seed() {
  SynthConfig config;
  config.num_users = 40;
  config.seed = 11;
  return GenerateCommunity(config).ValueOrDie().dataset;
}

/// Reads on both shards, several per shard so the round robin over
/// {replica, primary} reaches the replica more than once. Trust pairs
/// g, g + 2 share a shard; topk sources name users by index and by name.
std::vector<Request> Reads(Method method, const Dataset& seed) {
  std::vector<Request> reads;
  for (uint32_t g = 0; g < 8; ++g) {
    Request request;
    request.id = static_cast<int64_t>(reads.size()) + 1;
    if (method == Method::kTrust) {
      request.payload =
          TrustQuery{std::to_string(g), std::to_string(g + 2)};
      reads.push_back(request);
    } else {
      request.payload = TopKQuery{std::to_string(g), 5};
      reads.push_back(request);
      request.id += 1;
      request.payload = TopKQuery{seed.user(UserId(g)).name, 5};
      reads.push_back(request);
    }
  }
  return reads;
}

ReplStatusResult ReplStatus(ShardRouter& router) {
  Request request;
  request.payload = ReplStatusRequest{};
  Response response = router.Dispatch(request);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  return std::get<ReplStatusResult>(response.payload);
}

class ShardRouterReplicaTest
    : public ::testing::TestWithParam<std::tuple<Script, Method>> {};

TEST_P(ShardRouterReplicaTest, ReplicaReadsFollowTheContract) {
  const auto [script, method] = GetParam();
  Dataset seed = Seed();
  std::unique_ptr<ShardRouter> plain =
      ShardRouter::Create(seed, kShards).ValueOrDie();
  std::unique_ptr<ShardRouter> router =
      ShardRouter::Create(seed, kShards).ValueOrDie();
  std::vector<std::shared_ptr<ScriptedReplica>> replicas;
  for (size_t s = 0; s < kShards; ++s) {
    replicas.push_back(std::make_shared<ScriptedReplica>(
        router->shard_service(s), script));
    router->AddReplica(s, replicas.back());
  }
  for (const ReplReplicaInfo& info : ReplStatus(*router).replicas) {
    EXPECT_EQ(info.healthy, 1) << "shard " << info.shard;
  }

  for (const Request& request : Reads(method, seed)) {
    Response response = router->Dispatch(request);
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_EQ(EncodeResponse(response),
              EncodeResponse(plain->Dispatch(request)));
  }

  int64_t served = 0;
  for (const std::shared_ptr<ScriptedReplica>& replica : replicas) {
    served += replica->served.load();
  }
  EXPECT_EQ(
      router->metrics_registry()->counter("router.replica_reads")->Value(),
      served);

  const ReplStatusResult status = ReplStatus(*router);
  ASSERT_EQ(status.replicas.size(), kShards);
  for (size_t s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const ScriptedReplica& replica = *replicas[s];
    const int64_t healthy = status.replicas[s].healthy;
    switch (script) {
      case Script::kCaughtUp:
        EXPECT_GT(replica.served.load(), 0);
        EXPECT_EQ(healthy, 1);
        break;
      case Script::kTransportFailure:
        // One failed attempt marks the replica down; later reads skip it.
        EXPECT_EQ(replica.forwards.load(), 1);
        EXPECT_EQ(healthy, 0);
        break;
      case Script::kErrorResponse:
        // The replica answered, so it stays eligible and is tried again.
        EXPECT_GT(replica.forwards.load(), 1);
        EXPECT_EQ(replica.served.load(), 0);
        EXPECT_EQ(healthy, 1);
        break;
      case Script::kStale:
        EXPECT_EQ(replica.forwards.load(), 0);
        EXPECT_EQ(healthy, 1);
        break;
    }
  }
}

std::string CaseName(
    const ::testing::TestParamInfo<std::tuple<Script, Method>>& info) {
  static const char* const kScripts[] = {"CaughtUp", "TransportFailure",
                                         "ErrorResponse", "Stale"};
  return std::string(kScripts[static_cast<int>(std::get<0>(info.param))]) +
         (std::get<1>(info.param) == Method::kTrust ? "Trust" : "TopK");
}

INSTANTIATE_TEST_SUITE_P(
    Scripts, ShardRouterReplicaTest,
    ::testing::Combine(::testing::Values(Script::kCaughtUp,
                                         Script::kTransportFailure,
                                         Script::kErrorResponse,
                                         Script::kStale),
                       ::testing::Values(Method::kTrust, Method::kTopK)),
    CaseName);

// A transport may run a router's reads on its own thread only while no
// replica is registered: a replica read is a blocking forward. Writes
// never run inline.
TEST(ShardRouterPlacementTest, ReadsRunInlineUntilAReplicaIsRegistered) {
  Dataset seed = Seed();
  std::unique_ptr<ShardRouter> router =
      ShardRouter::Create(seed, kShards).ValueOrDie();
  Request trust;
  trust.payload = TrustQuery{"0", "2"};
  Request commit;
  commit.payload = CommitRequest{};
  EXPECT_TRUE(router->RunsInline(trust));
  EXPECT_FALSE(router->RunsInline(commit));

  router->AddReplica(0, std::make_shared<ScriptedReplica>(
                            router->shard_service(0), Script::kCaughtUp));
  EXPECT_FALSE(router->RunsInline(trust));
  EXPECT_FALSE(router->RunsInline(commit));
}

}  // namespace
}  // namespace api
}  // namespace wot
