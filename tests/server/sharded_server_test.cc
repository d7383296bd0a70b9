// ISSUE-5 acceptance (label: integration; runs under the ASan preset's
// full suite and the TSan preset's -L integration job): >= 8 concurrent
// pipelining socket clients against a 4-shard ShardRouter served through
// the ConnectionServer. Every response must be byte-identical to
// dispatching the same script through an identically booted in-process
// router — proving the event loop and its worker pool compose with the
// scatter-gather router exactly as they do with a plain frontend, and
// that concurrent reads from many connections into the router's
// lock-free read path are race-free.
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
#include "wot/api/shard_router.h"
#include "wot/api/unix_socket.h"
#include "wot/server/connection_server.h"
#include "wot/synth/generator.h"

namespace wot {
namespace server {
namespace {

using testing::ServerHarness;

constexpr size_t kShards = 4;

Dataset TestCommunity() {
  SynthConfig config;
  config.num_users = 96;
  config.seed = 555;
  return GenerateCommunity(config).ValueOrDie().dataset;
}

// A deterministic per-client script of pure snapshot reads in GLOBAL
// ids: same-shard trust/explain pairs (stride kShards keeps the residue
// class), topk fan-outs, and deliberate cross-shard + unresolvable refs
// so the router's error paths run under concurrency too.
std::vector<std::string> ClientScript(int client, size_t num_users,
                                      int requests) {
  std::vector<std::string> lines;
  lines.reserve(static_cast<size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    api::Request request;
    request.id = client * 100000 + i + 1;
    size_t a = static_cast<size_t>(client * 13 + i * 7) % num_users;
    size_t same_shard =
        (a + kShards * (1 + static_cast<size_t>(i) % 5)) % num_users;
    if (same_shard % kShards != a % kShards) {
      same_shard = a;  // wrap changed the residue; self-pair still works
    }
    switch (i % 5) {
      case 0:
        request.payload = api::TrustQuery{std::to_string(a),
                                          std::to_string(same_shard)};
        break;
      case 1:
        request.payload =
            api::TopKQuery{std::to_string(a), 1 + (client + i) % 8};
        break;
      case 2:
        request.payload = api::ExplainQuery{std::to_string(a),
                                            std::to_string(same_shard)};
        break;
      case 3:  // cross-shard pair: framed NOT_FOUND under load
        request.payload = api::TrustQuery{
            std::to_string(a), std::to_string((a + 1) % num_users)};
        break;
      default:  // unresolvable ref: NOT_FOUND from the name probe
        request.payload = api::TopKQuery{"no_such_user", 3};
        break;
    }
    lines.push_back(api::EncodeRequest(request));
  }
  return lines;
}

TEST(ShardedServerTest, EightClientsOverFourShardsMatchLoopback) {
  Dataset seed = TestCommunity();
  const size_t num_users = seed.num_users();
  std::unique_ptr<api::ShardRouter> router =
      api::ShardRouter::Create(seed, kShards).ValueOrDie();

  ConnectionServerOptions options;
  options.num_threads = 4;
  ServerHarness harness(router.get(), options);

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
  EXPECT_TRUE(harness.Stop().ok());

  // Reference: the identical scripts through an identically booted
  // in-process router. Query responses carry no serving counters, so
  // bytes must match exactly — across the OK and error surface alike.
  std::unique_ptr<api::ShardRouter> reference =
      api::ShardRouter::Create(seed, kShards).ValueOrDie();
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(responses[c].size(),
              static_cast<size_t>(kRequestsPerClient));
    for (int i = 0; i < kRequestsPerClient; ++i) {
      EXPECT_EQ(responses[c][i], reference->DispatchLine(scripts[c][i]))
          << "client " << c << " response " << i
          << " diverged for request: " << scripts[c][i];
    }
  }

  ConnectionServerStats stats = harness.server()->stats();
  EXPECT_EQ(stats.connections_accepted, kClients);
  EXPECT_EQ(stats.requests_dispatched,
            static_cast<int64_t>(kClients) * kRequestsPerClient);
  EXPECT_EQ(stats.connections_closed_slow, 0);

  // The boots satellite, through the server path: the router observed
  // one boot per shard, never "1" for the fleet.
  EXPECT_EQ(router->stats().service_boots,
            static_cast<int64_t>(kShards));
}

// Concurrent readers stream through the server while the router commits
// fan-outs: responses stay well-formed and the epoch only ever advances
// after whole-fleet swaps (readers see 1, 2, 3, ... in stats frames,
// never a torn intermediate).
TEST(ShardedServerTest, CommitFanOutUnderConcurrentReaders) {
  Dataset seed = TestCommunity();
  const size_t num_users = seed.num_users();
  std::unique_ptr<api::ShardRouter> router =
      api::ShardRouter::Create(seed, kShards).ValueOrDie();
  ConnectionServerOptions options;
  options.num_threads = 3;
  ServerHarness harness(router.get(), options);

  constexpr int kReaders = 4;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<size_t> total_reads{0};

  auto reader_client = [&](int index) {
    int fd = harness.Connect();
    api::FdLineReader reader(fd);
    // Epoch monotonicity is asserted ACROSS pipelined rounds, not within
    // one: FIFO governs response delivery, not execution, so two stats
    // requests of the same burst may read the epoch in either order.
    // Once a round is fully consumed, every later request is dispatched
    // strictly after — the epoch may then never move backward.
    uint64_t completed_rounds_max = 0;
    size_t reads = 0;
    int64_t next_id = 1;
    do {
      constexpr int kRound = 12;
      std::string burst;
      for (int i = 0; i < kRound; ++i) {
        api::Request request;
        request.id = next_id++;
        if (i % 3 == 0) {
          request.payload = api::StatsRequest{};
        } else {
          size_t a =
              static_cast<size_t>(index * 17 + i * 3) % num_users;
          request.payload = api::TopKQuery{std::to_string(a), 4};
        }
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
        if (const api::StatsResult* stats =
                std::get_if<api::StatsResult>(&response.payload)) {
          // No request may observe an epoch older than one a fully
          // completed earlier round already observed.
          if (stats->snapshot_version < completed_rounds_max ||
              stats->shards != static_cast<int64_t>(kShards) ||
              stats->service_boots != static_cast<int64_t>(kShards)) {
            round_ok = false;
            break;
          }
          if (stats->snapshot_version > round_max) {
            round_max = stats->snapshot_version;
          }
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

  // Writer: ingest + commit THROUGH the router (the shards are
  // router-owned), on its own connection. Each request waits for its
  // response before the next is sent: pipelining ingest+commit in one
  // burst would let the pool execute the commit FIRST (FIFO governs
  // delivery, not execution), turning it into a no-op and skewing the
  // epoch count asserted below.
  {
    int fd = harness.Connect();
    api::FdLineReader reader(fd);
    int64_t id = 900000;
    for (int batch = 0; batch < 5; ++batch) {
      std::vector<api::Request> requests;
      api::Request user;
      user.id = ++id;
      user.payload =
          api::IngestUser{"stress/rater" + std::to_string(batch)};
      requests.push_back(user);
      api::Request commit;
      commit.id = ++id;
      commit.payload = api::CommitRequest{};
      requests.push_back(commit);
      for (const api::Request& request : requests) {
        ASSERT_TRUE(
            api::SendAll(fd, api::EncodeRequest(request) + "\n").ok());
        std::string line;
        ASSERT_TRUE(reader.Next(&line).ValueOrDie());
        api::Response response;
        ASSERT_TRUE(api::DecodeResponse(line, &response).ok());
        ASSERT_TRUE(response.status.ok()) << line;
      }
    }
    ::close(fd);
  }
  done.store(true, std::memory_order_relaxed);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(total_reads.load(), 0u);
  // 5 batches, each publishing at least the new user's affiliation row.
  EXPECT_EQ(router->epoch(), 6u);
  EXPECT_TRUE(harness.Stop().ok());
}

}  // namespace
}  // namespace server
}  // namespace wot
