// Unit tests of ConnectionServer: lifecycle, request/response through a
// real socket, per-connection FIFO under a multi-thread dispatch pool,
// framing bounds, tolerant EOF handling, and the stats plumbing.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "server_harness.h"
#include "testing/fixtures.h"
#include "wot/api/client.h"
#include "wot/api/codec.h"
#include "wot/api/unix_socket.h"
#include "wot/server/connection_server.h"

namespace wot {
namespace server {
namespace {

using testing::ServerHarness;

TEST(ConnectionServerTest, StartsAndStopsCleanlyWithNoClients) {
  ServerHarness harness(wot::testing::TinyCommunity());
  Status status = harness.Stop();
  EXPECT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(harness.server()->stats().connections_accepted, 0);
  EXPECT_EQ(harness.server()->stats().connections_active, 0);
}

TEST(ConnectionServerTest, ServesARequestAndSurfacesConnectionStats) {
  ServerHarness harness(wot::testing::TinyCommunity());
  Result<std::unique_ptr<api::SocketClient>> client =
      api::SocketClient::Connect(harness.socket_path());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  api::Request trust;
  trust.payload = api::TrustQuery{"u2", "u0"};
  Result<api::Response> response = client.ValueOrDie()->Call(trust);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_TRUE(response.ValueOrDie().status.ok());
  EXPECT_EQ(std::get<api::TrustResult>(response.ValueOrDie().payload).trust,
            harness.service()->Snapshot()->Trust(2, 0));

  api::Request stats_request;
  stats_request.payload = api::StatsRequest{};
  Result<api::Response> stats_response =
      client.ValueOrDie()->Call(stats_request);
  ASSERT_TRUE(stats_response.ok());
  const api::StatsResult& stats =
      std::get<api::StatsResult>(stats_response.ValueOrDie().payload);
  EXPECT_EQ(stats.service_boots, 1);
  EXPECT_EQ(stats.connections_accepted, 1);
  EXPECT_EQ(stats.connections_active, 1);
  // trust + stats were read off this connection, in that order.
  EXPECT_EQ(stats.connection_requests_served, 2);

  client.ValueOrDie().reset();
  EXPECT_TRUE(harness.Stop().ok());
  EXPECT_EQ(harness.server()->stats().connections_accepted, 1);
  EXPECT_EQ(harness.server()->stats().requests_dispatched, 2);
}

TEST(ConnectionServerTest, PipelinedResponsesKeepArrivalOrder) {
  ConnectionServerOptions options;
  options.num_threads = 4;  // out-of-order completion is the norm here
  ServerHarness harness(wot::testing::TinyCommunity(), options);

  constexpr int kRequests = 200;
  std::string burst;
  for (int i = 0; i < kRequests; ++i) {
    api::Request request;
    request.id = i + 1;
    request.payload = api::TrustQuery{std::to_string(i % 4),
                                      std::to_string((i + 1) % 4)};
    burst += api::EncodeRequest(request);
    burst += '\n';
  }
  int fd = harness.Connect();
  ASSERT_TRUE(api::SendAll(fd, burst).ok());

  api::FdLineReader reader(fd);
  std::string line;
  for (int i = 0; i < kRequests; ++i) {
    Result<bool> got = reader.Next(&line);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got.ValueOrDie()) << "EOF after " << i << " responses";
    api::Response response;
    ASSERT_TRUE(api::DecodeResponse(line, &response).ok()) << line;
    // FIFO per connection: response i answers request i.
    EXPECT_EQ(response.id, i + 1);
  }
  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(ConnectionServerTest, OversizedLineAnswersFramedErrorThenCloses) {
  constexpr size_t kMaxLineBytes = 1024 * 1024;  // the server's bound
  ServerHarness harness(wot::testing::TinyCommunity());

  int fd = harness.Connect();
  // A legal frame first, then a line that can never fit the budget.
  api::Request request;
  request.id = 7;
  request.payload = api::StatsRequest{};
  std::string payload = api::EncodeRequest(request) + "\n";
  payload += std::string(kMaxLineBytes + 1, 'x');
  ASSERT_TRUE(api::SendAll(fd, payload).ok());

  api::FdLineReader reader(fd);
  std::string line;
  // Response 1: the legal frame, answered normally.
  ASSERT_TRUE(reader.Next(&line).ValueOrDie());
  api::Response first;
  ASSERT_TRUE(api::DecodeResponse(line, &first).ok());
  EXPECT_EQ(first.id, 7);
  EXPECT_TRUE(first.status.ok());
  // Response 2: a framed INVALID_ARGUMENT for the oversized line.
  ASSERT_TRUE(reader.Next(&line).ValueOrDie());
  api::Response error;
  ASSERT_TRUE(api::DecodeResponse(line, &error).ok()) << line;
  EXPECT_EQ(error.status.code, api::ApiCode::kInvalidArgument);
  EXPECT_NE(error.status.message.find(std::to_string(kMaxLineBytes)),
            std::string::npos)
      << error.status.message;
  // ... then EOF: the connection is dropped.
  EXPECT_FALSE(reader.Next(&line).ValueOrDie());
  ::close(fd);

  EXPECT_TRUE(harness.Stop().ok());
  EXPECT_EQ(harness.server()->stats().connections_closed_oversized, 1);
}

TEST(ConnectionServerTest, HalfCloseDrainsBlanksAndUnterminatedTail) {
  ServerHarness harness(wot::testing::TinyCommunity());
  int fd = harness.Connect();
  api::Request request;
  request.id = 1;
  request.payload = api::TrustQuery{"u2", "u0"};
  // One framed request, blank lines (ignored), and an unterminated tail
  // frame — then a write-side shutdown. Tolerant framing answers both.
  api::Request tail_request;
  tail_request.id = 2;
  tail_request.payload = api::StatsRequest{};
  std::string payload = api::EncodeRequest(request) + "\n\n\n" +
                        api::EncodeRequest(tail_request);
  ASSERT_TRUE(api::SendAll(fd, payload).ok());
  ASSERT_EQ(::shutdown(fd, SHUT_WR), 0);

  api::FdLineReader reader(fd);
  std::string line;
  ASSERT_TRUE(reader.Next(&line).ValueOrDie());
  api::Response first;
  ASSERT_TRUE(api::DecodeResponse(line, &first).ok());
  EXPECT_EQ(first.id, 1);
  ASSERT_TRUE(reader.Next(&line).ValueOrDie());
  api::Response second;
  ASSERT_TRUE(api::DecodeResponse(line, &second).ok());
  EXPECT_EQ(second.id, 2);
  EXPECT_TRUE(second.status.ok());
  // EOF: the server closed after answering everything it read.
  EXPECT_FALSE(reader.Next(&line).ValueOrDie());
  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(ConnectionServerTest, GracefulStopAnswersReadRequestsThenCloses) {
  ServerHarness harness(wot::testing::TinyCommunity());
  int fd = harness.Connect();
  std::string burst;
  constexpr int kRequests = 50;
  for (int i = 0; i < kRequests; ++i) {
    api::Request request;
    request.id = i + 1;
    request.payload = api::TrustQuery{"u2", "u0"};
    burst += api::EncodeRequest(request) + "\n";
  }
  ASSERT_TRUE(api::SendAll(fd, burst).ok());
  EXPECT_TRUE(harness.Stop().ok());

  // Drain semantics: every request the server had read when the stop
  // arrived is answered in order, then the connection closes. (On a
  // loaded scheduler the server may stop before reading anything — a
  // prefix, possibly empty, is the contract.)
  api::FdLineReader reader(fd);
  std::string line;
  int answered = 0;
  while (true) {
    Result<bool> got = reader.Next(&line);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (!got.ValueOrDie()) break;
    api::Response response;
    ASSERT_TRUE(api::DecodeResponse(line, &response).ok()) << line;
    EXPECT_EQ(response.id, ++answered);
  }
  EXPECT_LE(answered, kRequests);
  ::close(fd);
}

TEST(ConnectionServerTest, ThreadCountBelowOneIsClamped) {
  ConnectionServerOptions options;
  options.num_threads = 0;  // the CLI rejects this; the library clamps
  ServerHarness harness(wot::testing::TinyCommunity(), options);
  Result<std::unique_ptr<api::SocketClient>> client =
      api::SocketClient::Connect(harness.socket_path());
  ASSERT_TRUE(client.ok());
  api::Request request;
  request.payload = api::StatsRequest{};
  Result<api::Response> response = client.ValueOrDie()->Call(request);
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response.ValueOrDie().status.ok());
  client.ValueOrDie().reset();
  EXPECT_TRUE(harness.Stop().ok());
}

}  // namespace
}  // namespace server
}  // namespace wot
