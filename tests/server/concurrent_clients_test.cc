// Concurrency integration tests of the ConnectionServer (label:
// integration; runs under the ASan and TSan presets in CI).
//
//   1. ISSUE-4 acceptance: >= 8 simultaneous socket clients pipeline
//      interleaved query scripts against ONE server and every response
//      is byte-identical to dispatching the same script through an
//      in-process LoopbackClient-style frontend — proving the event
//      loop, its inline reads, the worker pool and per-connection
//      ordering are transparent.
//   2. A writer commits new snapshots while reader connections stream
//      queries through the event loop: every frame stays well-formed and
//      snapshot versions observed on one connection never move backward
//      (the lock-free snapshot swap under the server).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "server_harness.h"
#include "wot/api/codec.h"
#include "wot/api/frontend.h"
#include "wot/api/unix_socket.h"
#include "wot/server/connection_server.h"
#include "wot/service/trust_service.h"
#include "wot/synth/generator.h"

namespace wot {
namespace server {
namespace {

using testing::ServerHarness;

Dataset TestCommunity() {
  SynthConfig config;
  config.num_users = 80;
  config.seed = 321;
  return GenerateCommunity(config).ValueOrDie().dataset;
}

// A deterministic per-client script of interleaved query methods. Every
// request is a pure snapshot read, so responses are byte-reproducible
// against a reference frontend regardless of cross-client interleaving.
std::vector<std::string> ClientScript(int client, size_t num_users,
                                      int requests) {
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    api::Request request;
    request.id = client * 100000 + i + 1;
    size_t a = static_cast<size_t>(client * 13 + i * 7) % num_users;
    size_t b = static_cast<size_t>(client * 5 + i * 11 + 1) % num_users;
    switch (i % 3) {
      case 0:
        request.payload = api::TrustQuery{std::to_string(a),
                                          std::to_string(b)};
        break;
      case 1:
        request.payload =
            api::TopKQuery{std::to_string(a), 1 + (client + i) % 8};
        break;
      default:
        request.payload = api::ExplainQuery{std::to_string(a),
                                            std::to_string(b)};
        break;
    }
    lines.push_back(api::EncodeRequest(request));
  }
  return lines;
}

TEST(ConcurrentClientsTest, EightPipeliningClientsMatchLoopbackByteForByte) {
  Dataset seed = TestCommunity();
  const size_t num_users = seed.num_users();
  ConnectionServerOptions options;
  options.num_threads = 4;
  ServerHarness harness(seed, options);

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 150;

  std::vector<std::vector<std::string>> scripts;
  std::vector<std::vector<std::string>> responses(kClients);
  scripts.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    scripts.push_back(ClientScript(c, num_users, kRequestsPerClient));
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int fd = harness.Connect();
      // Pipeline the whole script in one burst; the server's bounded
      // write buffering absorbs the responses until we read them.
      std::string burst;
      for (const std::string& line : scripts[c]) {
        burst += line;
        burst += '\n';
      }
      if (!api::SendAll(fd, burst).ok()) {
        ++failures;
        ::close(fd);
        return;
      }
      api::FdLineReader reader(fd);
      std::string line;
      for (int i = 0; i < kRequestsPerClient; ++i) {
        Result<bool> got = reader.Next(&line);
        if (!got.ok() || !got.ValueOrDie()) {
          ++failures;
          break;
        }
        responses[c].push_back(line);
      }
      ::close(fd);
    });
  }
  for (std::thread& t : clients) {
    t.join();
  }
  ASSERT_EQ(failures.load(), 0);

  // Reference: the identical scripts through an in-process frontend over
  // an identically booted service (what LoopbackClient wraps). Query
  // responses carry no serving counters, so bytes must match exactly.
  std::unique_ptr<TrustService> reference_service =
      TrustService::Create(seed).ValueOrDie();
  api::ServiceFrontend reference(reference_service.get());
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(),
              static_cast<size_t>(kRequestsPerClient));
    for (int i = 0; i < kRequestsPerClient; ++i) {
      EXPECT_EQ(responses[c][i], reference.DispatchLine(scripts[c][i]))
          << "client " << c << " response " << i
          << " diverged for request: " << scripts[c][i];
    }
  }

  EXPECT_TRUE(harness.Stop().ok());
  ConnectionServerStats stats = harness.server()->stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.requests_dispatched,
            static_cast<int64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(stats.connections_closed_slow, 0);
}

TEST(ConcurrentClientsTest, SnapshotSwapsUnderTheEventLoopStayConsistent) {
  Dataset seed = TestCommunity();
  const size_t num_users = seed.num_users();
  const size_t num_reviews = seed.num_reviews();
  ConnectionServerOptions options;
  options.num_threads = 3;
  ServerHarness harness(seed, options);

  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<size_t> total_reads{0};

  auto reader_client = [&](int index) {
    int fd = harness.Connect();
    api::FdLineReader reader(fd);
    // Monotonicity is asserted ACROSS pipelined rounds, which needs no
    // assumption about when each request of a round executes (the
    // snapshot a request loads is whichever was published at that
    // instant). Once a round's responses are all consumed, every later
    // request is dispatched strictly after — coherence then forbids
    // older snapshots.
    uint64_t completed_rounds_max = 0;
    size_t reads = 0;
    int64_t next_id = 1;
    // do-while: on a single-core host the writer may finish before this
    // thread first runs; every reader still validates at least one round.
    do {
      // A small pipelined round: write 16, read 16.
      std::string burst;
      constexpr int kRound = 16;
      for (int i = 0; i < kRound; ++i) {
        api::Request request;
        request.id = next_id++;
        size_t a = static_cast<size_t>(index * 31 + i * 3) % num_users;
        size_t b =
            static_cast<size_t>(index * 17 + i * 13 + 1) % num_users;
        request.payload = api::TrustQuery{std::to_string(a),
                                          std::to_string(b)};
        burst += api::EncodeRequest(request) + "\n";
      }
      if (!api::SendAll(fd, burst).ok()) {
        ++failures;
        break;
      }
      bool round_ok = true;
      uint64_t round_max = completed_rounds_max;
      for (int i = 0; i < kRound; ++i) {
        std::string line;
        Result<bool> got = reader.Next(&line);
        if (!got.ok() || !got.ValueOrDie()) {
          round_ok = false;
          break;
        }
        api::Response response;
        if (!api::DecodeResponse(line, &response).ok() ||
            !response.status.ok()) {
          round_ok = false;
          break;
        }
        const api::TrustResult& result =
            std::get<api::TrustResult>(response.payload);
        // No request may observe a snapshot older than one a fully
        // completed earlier round already observed.
        if (result.snapshot_version < completed_rounds_max ||
            !(result.trust >= 0.0 && result.trust <= 1.0)) {
          round_ok = false;
          break;
        }
        if (result.snapshot_version > round_max) {
          round_max = result.snapshot_version;
        }
        ++reads;
      }
      completed_rounds_max = round_max;
      if (!round_ok) {
        ++failures;
        break;
      }
    } while (!done.load(std::memory_order_relaxed));
    ::close(fd);
    total_reads += reads;
  };

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back(reader_client, r);
  }

  // Writer: direct service handle (the same one the server dispatches
  // into), appending ratings and publishing snapshots under the loop.
  uint64_t last_commit_version = 0;
  for (int batch = 0; batch < 6; ++batch) {
    UserId rater = harness.service()->AddUser(
        "stress/rater" + std::to_string(batch));
    int appended = 0;
    for (size_t r = 0; r < num_reviews && appended < 8; ++r) {
      if (harness.service()
              ->AddRating(rater,
                          ReviewId(static_cast<uint32_t>(
                              (batch * 37 + r * 11) % num_reviews)),
                          0.2 + 0.2 * (r % 5))
              .ok()) {
        ++appended;
      }
    }
    TrustService::CommitStats stats =
        harness.service()->Commit().ValueOrDie();
    EXPECT_GE(stats.version, last_commit_version);
    last_commit_version = stats.version;
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(total_reads.load(), 0u);
  EXPECT_GT(last_commit_version, 1u);

  // After the dust settles: a fresh connection serves the final
  // snapshot byte-identically to an in-process frontend over the same
  // (shared) service.
  int fd = harness.Connect();
  api::FdLineReader verify_reader(fd);
  api::ServiceFrontend reference(harness.service());
  for (int i = 0; i < 40; ++i) {
    api::Request request;
    request.id = 900000 + i;
    request.payload =
        api::TrustQuery{std::to_string(static_cast<size_t>(i * 3) %
                                       num_users),
                        std::to_string(static_cast<size_t>(i * 7 + 1) %
                                       num_users)};
    std::string line = api::EncodeRequest(request);
    ASSERT_TRUE(api::SendAll(fd, line + "\n").ok());
    std::string reply;
    ASSERT_TRUE(verify_reader.Next(&reply).ValueOrDie());
    EXPECT_EQ(reply, reference.DispatchLine(line));
  }
  ::close(fd);
  EXPECT_TRUE(harness.Stop().ok());
}

}  // namespace
}  // namespace server
}  // namespace wot
