// A long write must not starve reads: ConnectionServer tests over a
// scripted frontend whose `commit` blocks on a latch until the test
// releases it.
//
//   (a) while one connection's commit is blocked, another connection
//       gets its reads answered, even when the commit holds the only
//       worker thread;
//   (b) on the committing connection, reads pipelined behind the commit
//       are answered after it, in arrival order;
//   (c) a fatal framing error pipelined behind the commit is answered
//       after the commit's response, then the connection closes.
//
// Last, against a real ServiceFrontend: a read pipelined behind a commit
// executes after it and answers from the snapshot it published.
#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>

#include "server_harness.h"
#include "testing/fixtures.h"
#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/api/unix_socket.h"
#include "wot/server/connection_server.h"

namespace wot {
namespace server {
namespace {

using testing::ServerHarness;

constexpr double kScriptedTrust = 0.25;
constexpr uint64_t kScriptedVersion = 7;

// Answers `trust` at once with a fixed value and blocks `commit` until
// Release(). Every other method answers OK with an empty payload.
class LatchedCommitFrontend : public api::Frontend {
 public:
  bool ReadsAreLocal() const override { return true; }

  void WaitUntilCommitBlocked() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return commit_blocked_; });
  }

  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 protected:
  api::Response DispatchPayload(const api::Request& request,
                                const api::ConnectionContext&) override {
    api::Response response;
    if (std::holds_alternative<api::TrustQuery>(request.payload)) {
      api::TrustResult result;
      result.trust = kScriptedTrust;
      result.snapshot_version = kScriptedVersion;
      response.payload = result;
    } else if (std::holds_alternative<api::CommitRequest>(
                   request.payload)) {
      std::unique_lock<std::mutex> lock(mu_);
      commit_blocked_ = true;
      cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
      api::CommitResult result;
      result.snapshot_version = kScriptedVersion + 1;
      result.published = true;
      response.payload = result;
    }
    return response;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool commit_blocked_ = false;
  bool released_ = false;
};

// Releases the latch on scope exit, so a failed assertion never leaves a
// pool worker blocked while the harness drains. Declare it after the
// harness: it must run first.
class ReleaseOnExit {
 public:
  explicit ReleaseOnExit(LatchedCommitFrontend* frontend)
      : frontend_(frontend) {}
  ~ReleaseOnExit() { frontend_->Release(); }

 private:
  LatchedCommitFrontend* frontend_;
};

std::string Line(int64_t id, api::RequestPayload payload) {
  api::Request request;
  request.id = id;
  request.payload = std::move(payload);
  return api::EncodeRequest(request) + "\n";
}

api::Response ReadResponse(api::FdLineReader* reader) {
  std::string line;
  Result<bool> got = reader->Next(&line);
  EXPECT_TRUE(got.ok() && got.ValueOrDie()) << "no response line";
  api::Response response;
  EXPECT_TRUE(api::DecodeResponse(line, &response).ok()) << line;
  return response;
}

// True when \p fd has bytes (or EOF) to read within \p millis.
bool Readable(int fd, int millis) {
  pollfd pfd{fd, POLLIN, 0};
  return ::poll(&pfd, 1, millis) > 0;
}

void ExpectReadsAnsweredDuringBlockedCommit(
    const ConnectionServerOptions& options) {
  LatchedCommitFrontend frontend;
  ServerHarness harness(&frontend, options);
  ReleaseOnExit release(&frontend);

  int writer = harness.Connect();
  ASSERT_TRUE(api::SendAll(writer, Line(1, api::CommitRequest{})).ok());
  frontend.WaitUntilCommitBlocked();

  int reader_fd = harness.Connect();
  api::FdLineReader reader(reader_fd);
  constexpr int kReads = 100;
  for (int i = 0; i < kReads; ++i) {
    ASSERT_TRUE(
        api::SendAll(reader_fd, Line(i + 1, api::TrustQuery{"a", "b"}))
            .ok());
    api::Response response = ReadResponse(&reader);
    ASSERT_TRUE(response.status.ok()) << response.status.message;
    EXPECT_EQ(response.id, i + 1);
    EXPECT_EQ(std::get<api::TrustResult>(response.payload).trust,
              kScriptedTrust);
  }

  frontend.Release();
  api::FdLineReader writer_reader(writer);
  api::Response commit = ReadResponse(&writer_reader);
  EXPECT_EQ(commit.id, 1);
  EXPECT_TRUE(commit.status.ok());
  ::close(reader_fd);
  ::close(writer);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(BlockedCommitTest, OtherConnectionsReadWhileACommitIsBlocked) {
  ExpectReadsAnsweredDuringBlockedCommit({});
}

TEST(BlockedCommitTest, ReadsNeedNoFreeWorkerThread) {
  ConnectionServerOptions options;
  options.num_threads = 1;  // the blocked commit holds it
  ExpectReadsAnsweredDuringBlockedCommit(options);
}

TEST(BlockedCommitTest, ReadsPipelinedBehindACommitAnswerInOrder) {
  LatchedCommitFrontend frontend;
  ServerHarness harness(&frontend);
  ReleaseOnExit release(&frontend);

  int fd = harness.Connect();
  std::string burst = Line(1, api::CommitRequest{});
  for (int i = 2; i <= 4; ++i) {
    burst += Line(i, api::TrustQuery{"a", "b"});
  }
  ASSERT_TRUE(api::SendAll(fd, burst).ok());
  frontend.WaitUntilCommitBlocked();
  // Nothing may overtake the blocked commit.
  EXPECT_FALSE(Readable(fd, 50));

  frontend.Release();
  api::FdLineReader reader(fd);
  api::Response commit = ReadResponse(&reader);
  EXPECT_EQ(commit.id, 1);
  EXPECT_TRUE(std::holds_alternative<api::CommitResult>(commit.payload));
  for (int i = 2; i <= 4; ++i) {
    api::Response trust = ReadResponse(&reader);
    EXPECT_EQ(trust.id, i);
    EXPECT_TRUE(std::holds_alternative<api::TrustResult>(trust.payload));
  }
  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

TEST(BlockedCommitTest, OversizedLineBehindACommitAnswersAfterIt) {
  constexpr size_t kMaxLineBytes = 1024 * 1024;  // the server's bound
  LatchedCommitFrontend frontend;
  ServerHarness harness(&frontend);
  ReleaseOnExit release(&frontend);

  int fd = harness.Connect();
  std::string payload = Line(1, api::CommitRequest{}) +
                        std::string(kMaxLineBytes + 1, 'x');
  // The server may stop reading while the commit is blocked, so the
  // oversized line is sent from its own thread.
  std::thread sender([fd, &payload] {
    EXPECT_TRUE(api::SendAll(fd, payload).ok());
  });
  frontend.WaitUntilCommitBlocked();
  frontend.Release();

  api::FdLineReader reader(fd);
  api::Response commit = ReadResponse(&reader);
  EXPECT_EQ(commit.id, 1);
  EXPECT_TRUE(commit.status.ok());
  api::Response error = ReadResponse(&reader);
  EXPECT_EQ(error.status.code, api::ApiCode::kInvalidArgument);
  EXPECT_NE(error.status.message.find(std::to_string(kMaxLineBytes)),
            std::string::npos)
      << error.status.message;
  std::string line;
  EXPECT_FALSE(reader.Next(&line).ValueOrDie());  // then EOF
  sender.join();
  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
  EXPECT_EQ(harness.server()->stats().connections_closed_oversized, 1);
}

TEST(InOrderExecutionTest, ReadBehindACommitAnswersFromItsSnapshot) {
  ServerHarness harness(wot::testing::TinyCommunity());
  int fd = harness.Connect();
  api::FdLineReader reader(fd);
  for (int round = 0; round < 5; ++round) {
    // One burst: a publishing batch, its commit, and a read naming the
    // user the batch adds (NOT_FOUND on any earlier snapshot).
    const std::string user = "pipelined" + std::to_string(round);
    const std::string burst = Line(1, api::IngestUser{user}) +
                              Line(2, api::IngestRating{user, 2, 0.8}) +
                              Line(3, api::IngestRating{user, 0, 0.6}) +
                              Line(4, api::CommitRequest{}) +
                              Line(5, api::TrustQuery{user, "u1"});
    ASSERT_TRUE(api::SendAll(fd, burst).ok());
    api::Response responses[5];
    for (int i = 0; i < 5; ++i) {
      responses[i] = ReadResponse(&reader);
      EXPECT_EQ(responses[i].id, i + 1);
      ASSERT_TRUE(responses[i].status.ok())
          << "request " << i + 1 << ": " << responses[i].status.message;
    }
    const auto& commit = std::get<api::CommitResult>(responses[3].payload);
    EXPECT_TRUE(commit.published);
    const auto& trust = std::get<api::TrustResult>(responses[4].payload);
    EXPECT_EQ(trust.snapshot_version, commit.snapshot_version);
    EXPECT_EQ(trust.source_name, user);
  }
  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

}  // namespace
}  // namespace server
}  // namespace wot
