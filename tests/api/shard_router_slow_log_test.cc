// The slow-request log names the shard that served a routed read. With a
// zero threshold every dispatch writes one line, so each routed trust,
// explain and topk must carry `shard=<owner>`, not the -1 of a request
// that never reached a shard.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "wot/api/shard_router.h"
#include "wot/synth/generator.h"
#include "wot/util/logging.h"

namespace wot {
namespace api {
namespace {

class ShardRouterSlowLogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = GetLogThreshold();
    SetLogThreshold(LogLevel::kInfo);
  }
  void TearDown() override { SetLogThreshold(saved_); }

 private:
  LogLevel saved_;
};

TEST_F(ShardRouterSlowLogTest, RoutedReadsNameTheirOwningShard) {
  SynthConfig config;
  config.num_users = 40;
  config.seed = 11;
  Dataset seed = GenerateCommunity(config).ValueOrDie().dataset;
  std::unique_ptr<ShardRouter> router =
      ShardRouter::Create(seed, 2).ValueOrDie();
  router->set_slow_request_threshold_millis(0);

  struct Case {
    RequestPayload payload;
    int owner;
  };
  // Global user g lives on shard g % 2.
  const std::vector<Case> cases = {
      {TrustQuery{"1", "3"}, 1},   {TrustQuery{"0", "2"}, 0},
      {ExplainQuery{"3", "5"}, 1}, {TopKQuery{"1", 5}, 1},
      {TopKQuery{"2", 5}, 0},      {TopKQuery{seed.user(UserId(5)).name, 5}, 1},
  };
  for (const Case& c : cases) {
    Request request;
    request.payload = c.payload;
    ::testing::internal::CaptureStderr();
    Response response = router->Dispatch(request);
    const std::string log = ::testing::internal::GetCapturedStderr();
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_NE(log.find("slow request"), std::string::npos) << log;
    EXPECT_NE(log.find(" shard=" + std::to_string(c.owner) + " "),
              std::string::npos)
        << log;
  }
}

}  // namespace
}  // namespace api
}  // namespace wot
