// Serving-path microbenchmark: TrustService boot cost, per-query latency
// (Trust / TopK / ExplainTrust) against a published snapshot, the
// incremental commit (snapshot-swap) cost of folding in fresh ratings,
// multi-client throughput of the wot/server ConnectionServer (real
// unix-socket clients pipelining against the epoll loop + dispatch
// pool), and the same throughput through an api::ShardRouter over
// --shards TrustService shards (same-shard query workload, so the
// routed path is measured, not the NOT_FOUND path).
//
//   micro_service --users 4000 --seed 42
//   micro_service --users 4000 --shards 4 --json BENCH_service.json
//   micro_service --users 4000 --protocol binary
//
// The NDJSON and v2 binary API round trips are both measured every run
// (api_trust_roundtrip_us vs api_trust_roundtrip_us_binary — the gap to
// trust_query_us is pure codec cost); --protocol picks the wire the
// socket-throughput sections drive.
//
// Uses wall-clock batches (no Google Benchmark dependency) so it always
// builds; --json emits the machine-readable report tracked across PRs.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include <fstream>
#include <sstream>

#include "bench_util.h"
#include "wot/api/binary_codec.h"
#include "wot/api/codec.h"
#include "wot/io/json_parser.h"
#include "wot/api/frontend.h"
#include "wot/api/shard_router.h"
#include "wot/api/unix_socket.h"
#include "wot/server/connection_server.h"
#include "wot/service/trust_service.h"
#include "wot/storage/storage_manager.h"
#include "wot/util/check.h"
#include "wot/util/stopwatch.h"

namespace wot {
namespace bench {
namespace {

// Source/target pair of query q for client c: both in range, and in the
// same residue class mod `stride` so a ShardRouter with `stride` shards
// serves the routed (same-shard) path. stride 1 keeps the historical
// independent-pair workload so server_qps_* rows stay comparable across
// the committed trajectory.
std::pair<size_t, size_t> QueryPair(int64_t q, int c, size_t num_users,
                                    size_t stride) {
  size_t a = (static_cast<size_t>(q) * 7 + static_cast<size_t>(c)) %
             num_users;
  if (stride == 1) {
    return {a, (static_cast<size_t>(q) * 13 + static_cast<size_t>(c) +
                1) %
                   num_users};
  }
  size_t b = a + stride * (1 + static_cast<size_t>(q) % 7);
  if (b >= num_users) b = a;  // keep the residue; a self-pair is valid
  return {a, b};
}

// Aggregate queries/second of `clients` unix-socket clients, each
// pipelining `per_client` trust queries (in windows, so neither side
// deadlocks on socket buffers) against one ConnectionServer.
double MeasureServerThroughput(api::Frontend* frontend, size_t num_users,
                               size_t stride, int server_threads,
                               int clients, int64_t per_client,
                               api::WireProtocol protocol) {
  static int run_counter = 0;
  std::string socket_path =
      "/tmp/wot_micro_service_" + std::to_string(::getpid()) + "_" +
      std::to_string(run_counter++) + ".sock";
  std::remove(socket_path.c_str());
  server::ConnectionServerOptions options;
  options.num_threads = server_threads;
  server::ConnectionServer server(frontend, options);
  Result<int> listen_fd = api::ListenUnixSocket(socket_path, 64);
  WOT_CHECK_OK(listen_fd.status());
  std::thread serve_thread([&server, fd = listen_fd.ValueOrDie()] {
    WOT_CHECK_OK(server.Serve(fd));
  });

  Stopwatch timer;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      Result<int> fd = api::ConnectUnixSocket(socket_path);
      WOT_CHECK_OK(fd.status());
      const bool binary = protocol == api::WireProtocol::kBinary;
      api::FdLineReader reader(fd.ValueOrDie());
      api::BinaryFrameAssembler frames(64u << 20);
      constexpr int64_t kWindow = 64;
      int64_t sent = 0;
      int64_t received = 0;
      std::string line;
      while (received < per_client) {
        std::string burst;
        for (int64_t w = 0; w < kWindow && sent < per_client;
             ++w, ++sent) {
          api::Request request;
          request.id = sent + 1;
          auto [a, b] = QueryPair(sent, c, num_users, stride);
          request.payload =
              api::TrustQuery{std::to_string(a), std::to_string(b)};
          if (binary) {
            // Binary-first: no handshake, the server sniffs the magic.
            burst += api::EncodeRequestBinary(request);
          } else {
            burst += api::EncodeRequest(request);
            burst += '\n';
          }
        }
        if (!burst.empty()) {
          WOT_CHECK_OK(api::SendAll(fd.ValueOrDie(), burst));
        }
        while (received < sent) {
          if (binary) {
            if (frames.NextFrame().has_value()) {
              ++received;
              continue;
            }
            char chunk[4096];
            ssize_t n = ::read(fd.ValueOrDie(), chunk, sizeof(chunk));
            WOT_CHECK_GT(n, 0);
            WOT_CHECK(frames.Append(
                std::string_view(chunk, static_cast<size_t>(n))));
          } else {
            WOT_CHECK(reader.Next(&line).ValueOrDie());
            ++received;
          }
        }
      }
      ::close(fd.ValueOrDie());
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  const double elapsed = timer.ElapsedSeconds();
  server.RequestStop();
  serve_thread.join();
  std::remove(socket_path.c_str());
  return static_cast<double>(clients) *
         static_cast<double>(per_client) / elapsed;
}

int Main(int argc, char** argv) {
  ExperimentArgs args;
  FlagParser flags("micro_service",
                   "TrustService query latency and snapshot-swap cost");
  RegisterCommonFlags(&flags, &args);
  RegisterJsonFlag(&flags, &args);
  int64_t queries = 20000;
  int64_t shards = 4;
  std::string protocol = "ndjson";
  std::string off_report;
  flags.AddInt64("queries", &queries, "queries per measurement batch");
  flags.AddInt64("shards", &shards,
                 "shard count of the ShardRouter throughput section");
  flags.AddString("protocol", &protocol,
                  "wire protocol of the socket-throughput sections "
                  "(ndjson | binary)");
  flags.AddString("off_report", &off_report,
                  "--json report of a micro_service_off run "
                  "(WOT_TELEMETRY_OFF twin); adds telemetry_overhead_* "
                  "fields comparing this run against it");
  WOT_CHECK_OK(flags.Parse(argc, argv));
  WOT_CHECK_GT(queries, 0);
  WOT_CHECK_GT(shards, 0);
  Result<api::WireProtocol> wire = api::WireProtocolFromName(protocol);
  WOT_CHECK_OK(wire.status());

  SynthCommunity community = MakeCommunity(args);
  const Dataset& dataset = community.dataset;
  const size_t num_users = dataset.num_users();
  WOT_CHECK_GT(num_users, 1u);

  Stopwatch timer;
  std::unique_ptr<TrustService> service =
      TrustService::Create(dataset).ValueOrDie();
  const double boot_ms = timer.ElapsedMillis();

  // Durable storage: the write-through fresh boot (Create + segment-1 +
  // wal-1), then the instant recovered boot of the same directory — a
  // LoadSegment + Restore instead of the full reputation rebuild above.
  const std::string data_dir =
      (std::filesystem::temp_directory_path() / "micro_service_durable")
          .string();
  std::filesystem::remove_all(data_dir);
  storage::StorageOptions storage_options;
  storage_options.fsync = storage::FsyncPolicy::kOff;
  auto seed_provider = [&dataset] { return Result<Dataset>(dataset); };
  timer.Reset();
  storage::StorageManager::BootResult durable_fresh =
      storage::StorageManager::Boot(data_dir, seed_provider, {},
                                    storage_options)
          .ValueOrDie();
  const double durable_fresh_boot_ms = timer.ElapsedMillis();
  durable_fresh.service.reset();
  durable_fresh.manager.reset();
  // Best of two recovered boots: the first run soaks up cold page-cache
  // and allocator effects, so the minimum is the steady-state map cost
  // (the same convention the latency loops below use via many reps).
  double durable_boot_ms = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    timer.Reset();
    storage::StorageManager::BootResult durable_recovered =
        storage::StorageManager::Boot(data_dir, seed_provider, {},
                                      storage_options)
            .ValueOrDie();
    const double elapsed_ms = timer.ElapsedMillis();
    WOT_CHECK(durable_recovered.recovered);
    durable_recovered.service.reset();
    durable_recovered.manager.reset();
    durable_boot_ms = rep == 0 ? elapsed_ms
                               : std::min(durable_boot_ms, elapsed_ms);
  }
  std::filesystem::remove_all(data_dir);

  std::mt19937_64 rng(static_cast<uint64_t>(args.seed));
  std::uniform_int_distribution<size_t> pick(0, num_users - 1);

  // Pairwise Trust latency over one pinned snapshot.
  std::shared_ptr<const TrustSnapshot> snapshot = service->Snapshot();
  double checksum = 0.0;
  timer.Reset();
  for (int64_t q = 0; q < queries; ++q) {
    checksum += snapshot->Trust(pick(rng), pick(rng));
  }
  const double trust_us = timer.ElapsedSeconds() * 1e6 /
                          static_cast<double>(queries);

  // TopK latency (threshold algorithm over shared postings).
  const int64_t topk_queries = queries / 20 + 1;
  size_t topk_sum = 0;
  timer.Reset();
  for (int64_t q = 0; q < topk_queries; ++q) {
    topk_sum += snapshot->TopK(pick(rng), 10).size();
  }
  const double topk_us = timer.ElapsedSeconds() * 1e6 /
                         static_cast<double>(topk_queries);

  // ExplainTrust latency.
  const int64_t explain_queries = queries / 4 + 1;
  size_t term_sum = 0;
  timer.Reset();
  for (int64_t q = 0; q < explain_queries; ++q) {
    term_sum += snapshot->ExplainTrust(pick(rng), pick(rng)).terms.size();
  }
  const double explain_us = timer.ElapsedSeconds() * 1e6 /
                            static_cast<double>(explain_queries);

  // Full API wire cost per query: encode the request frame, decode +
  // dispatch + re-encode in the frontend, decode the response frame —
  // i.e. what one wot_served round trip costs on top of the raw call.
  api::ServiceFrontend frontend(service.get());
  const int64_t api_queries = queries / 4 + 1;
  double api_checksum = 0.0;
  timer.Reset();
  for (int64_t q = 0; q < api_queries; ++q) {
    api::Request request;
    request.id = q;
    request.payload = api::TrustQuery{std::to_string(pick(rng)),
                                      std::to_string(pick(rng))};
    std::string reply =
        frontend.DispatchLine(api::EncodeRequest(request));
    api::Response response;
    WOT_CHECK(api::DecodeResponse(reply, &response).ok());
    api_checksum +=
        std::get<api::TrustResult>(response.payload).trust;
  }
  const double api_trust_us = timer.ElapsedSeconds() * 1e6 /
                              static_cast<double>(api_queries);

  // The same round trip through the v2 binary framing: fixed-width
  // fields in, fixed-width fields out — no number formatting, no JSON
  // escaping — so this should sit much closer to the raw trust_query_us
  // floor than the NDJSON line above.
  double binary_checksum = 0.0;
  timer.Reset();
  for (int64_t q = 0; q < api_queries; ++q) {
    api::Request request;
    request.id = q;
    request.payload = api::TrustQuery{std::to_string(pick(rng)),
                                      std::to_string(pick(rng))};
    std::string reply =
        frontend.DispatchFrame(api::EncodeRequestBinary(request));
    api::Response response;
    WOT_CHECK(api::DecodeResponseBinary(reply, &response).ok());
    binary_checksum +=
        std::get<api::TrustResult>(response.payload).trust;
  }
  const double api_trust_binary_us = timer.ElapsedSeconds() * 1e6 /
                                     static_cast<double>(api_queries);

  // Incremental commit cost: append a handful of fresh ratings (new rater
  // per round so the append never collides) and publish.
  const int kCommits = 5;
  const double stages[] = {0.2, 0.4, 0.6, 0.8, 1.0};
  std::uniform_int_distribution<uint32_t> pick_review(
      0, static_cast<uint32_t>(dataset.num_reviews() - 1));
  double commit_ms_total = 0.0;
  size_t categories_recomputed = 0;
  for (int round = 0; round < kCommits; ++round) {
    UserId rater =
        service->AddUser("bench/rater" + std::to_string(round));
    for (int r = 0; r < 10; ++r) {
      // Duplicate (rater, review) pairs are rejected; ignore and retry via
      // the next draw — the workload stays ~10 appends per commit.
      (void)service->AddRating(rater, ReviewId(pick_review(rng)),
                               stages[rng() % 5]);
    }
    timer.Reset();
    TrustService::CommitStats stats = service->Commit().ValueOrDie();
    commit_ms_total += timer.ElapsedMillis();
    categories_recomputed += stats.categories_recomputed;
  }
  const double commit_ms = commit_ms_total / kCommits;

  // Snapshot swap visibility cost alone: a no-op commit (nothing staged).
  timer.Reset();
  TrustService::CommitStats noop = service->Commit().ValueOrDie();
  const double noop_commit_us = timer.ElapsedMillis() * 1e3;
  WOT_CHECK(!noop.published);

  // Multi-client ConnectionServer throughput: 1 pipelining client vs 8,
  // over the socket path wot_served serves in production. Uses the same
  // (already committed) service; trust queries only, so the measured
  // path is epoll + framing + pool dispatch + lock-free snapshot reads.
  const int64_t per_client = queries / 8 + 1;
  const double server_qps_c1 = MeasureServerThroughput(
      &frontend, num_users, /*stride=*/1, /*server_threads=*/4,
      /*clients=*/1, per_client, wire.ValueOrDie());
  const double server_qps_c8 = MeasureServerThroughput(
      &frontend, num_users, /*stride=*/1, /*server_threads=*/4,
      /*clients=*/8, per_client, wire.ValueOrDie());

  // Sharded serving: boot a ShardRouter over the same seed dataset and
  // repeat the API round trip + server throughput sections through it
  // (same-shard pairs, so the routed path is measured). The boot is
  // timed too — it includes slicing plus N per-shard derivations.
  timer.Reset();
  std::unique_ptr<api::ShardRouter> router =
      api::ShardRouter::Create(dataset, static_cast<size_t>(shards))
          .ValueOrDie();
  const double router_boot_ms = timer.ElapsedMillis();

  double router_checksum = 0.0;
  timer.Reset();
  for (int64_t q = 0; q < api_queries; ++q) {
    api::Request request;
    request.id = q;
    auto [a, b] = QueryPair(q, 0, num_users,
                            static_cast<size_t>(shards));
    request.payload =
        api::TrustQuery{std::to_string(a), std::to_string(b)};
    std::string reply = router->DispatchLine(api::EncodeRequest(request));
    api::Response response;
    WOT_CHECK(api::DecodeResponse(reply, &response).ok());
    router_checksum +=
        std::get<api::TrustResult>(response.payload).trust;
  }
  const double router_trust_us = timer.ElapsedSeconds() * 1e6 /
                                 static_cast<double>(api_queries);

  double router_binary_checksum = 0.0;
  timer.Reset();
  for (int64_t q = 0; q < api_queries; ++q) {
    api::Request request;
    request.id = q;
    auto [a, b] = QueryPair(q, 0, num_users,
                            static_cast<size_t>(shards));
    request.payload =
        api::TrustQuery{std::to_string(a), std::to_string(b)};
    std::string reply =
        router->DispatchFrame(api::EncodeRequestBinary(request));
    api::Response response;
    WOT_CHECK(api::DecodeResponseBinary(reply, &response).ok());
    router_binary_checksum +=
        std::get<api::TrustResult>(response.payload).trust;
  }
  const double router_trust_binary_us = timer.ElapsedSeconds() * 1e6 /
                                        static_cast<double>(api_queries);

  const double router_qps_c1 = MeasureServerThroughput(
      router.get(), num_users, static_cast<size_t>(shards),
      /*server_threads=*/4, /*clients=*/1, per_client,
      wire.ValueOrDie());
  const double router_qps_c8 = MeasureServerThroughput(
      router.get(), num_users, static_cast<size_t>(shards),
      /*server_threads=*/4, /*clients=*/8, per_client,
      wire.ValueOrDie());

  // Fan-out latency: a commit that dirties every shard (the shard
  // commits run one thread per shard) and a topk scatter by index (one
  // contributing shard, served on the calling thread).
  int64_t router_commit_seq = 0;
  int64_t next_object = 0;
  auto measure_router_commit = [&] {
    constexpr int kRouterCommits = 5;
    double total_ms = 0.0;
    for (int c = 0; c < kRouterCommits; ++c) {
      // Stage one review + 3 ratings on EVERY shard (ratings stay
      // within a shard, users interleave round-robin, object ids are
      // replicated), so each shard has a real category recompute and
      // the measured commit carries the full fan-out's work.
      for (int64_t s = 0; s < shards; ++s) {
        // One review per (writer, object): walk the object id forward
        // past objects this writer already reviewed (synthetic data).
        api::Response ack;
        for (int tries = 0; tries < 100; ++tries) {
          api::Request review_req;
          review_req.id = 700000 + router_commit_seq++;
          api::IngestReview review;
          review.writer = std::to_string(s);
          review.object = next_object;
          review_req.payload = review;
          ack = router->Dispatch(review_req);
          if (ack.status.ok()) break;
          ++next_object;
        }
        if (!ack.status.ok()) {
          std::fprintf(stderr, "review ingest failed: %s\n",
                       ack.status.message.c_str());
        }
        WOT_CHECK(ack.status.ok());
        const int64_t review_id =
            std::get<api::IngestResult>(ack.payload).assigned_id;
        for (int64_t r = 1; r <= 3; ++r) {
          api::Request rating_req;
          rating_req.id = 700000 + router_commit_seq++;
          api::IngestRating rating;
          rating.rater = std::to_string(s + r * shards);
          rating.review = review_id;
          rating.value = 0.2 * static_cast<double>(1 + (r % 5));
          rating_req.payload = rating;
          api::Response rated = router->Dispatch(rating_req);
          if (!rated.status.ok()) {
            std::fprintf(stderr, "rating ingest failed: %s\n",
                         rated.status.message.c_str());
          }
          WOT_CHECK(rated.status.ok());
        }
      }
      api::Request commit;
      commit.id = 700000 + router_commit_seq++;
      commit.payload = api::CommitRequest{};
      timer.Reset();
      api::Response ack = router->Dispatch(commit);
      total_ms += timer.ElapsedMillis();
      WOT_CHECK(ack.status.ok());
    }
    return total_ms / kRouterCommits;
  };
  auto measure_router_topk = [&] {
    double sink = 0.0;
    timer.Reset();
    for (int64_t q = 0; q < api_queries; ++q) {
      api::Request request;
      request.id = 800000 + q;
      auto [a, b] = QueryPair(q, 0, num_users,
                              static_cast<size_t>(shards));
      (void)b;
      request.payload = api::TopKQuery{std::to_string(a), 10};
      api::Response response = router->Dispatch(request);
      sink += static_cast<double>(
          std::get<api::TopKResult>(response.payload).trustees.size());
    }
    const double us = timer.ElapsedSeconds() * 1e6 /
                      static_cast<double>(api_queries);
    WOT_CHECK(sink > 0.0);
    return us;
  };
  const double router_commit_ms = measure_router_commit();
  const double router_topk_us = measure_router_topk();

  std::printf("service boot (full build + v1 publish):  %10.2f ms\n"
              "durable fresh boot (build + segment):    %10.2f ms\n"
              "durable recovered boot (segment map):    %10.2f ms\n"
              "Trust(i, j) latency:                     %10.3f us\n"
              "TopK(i, 10) latency:                     %10.3f us\n"
              "ExplainTrust(i, j) latency:              %10.3f us\n"
              "API NDJSON round trip (trust):           %10.3f us\n"
              "API binary round trip (trust):           %10.3f us\n"
              "incremental commit (10 appends):         %10.2f ms\n"
              "  (avg %.1f categories recomputed per commit)\n"
              "no-op commit:                            %10.3f us\n"
              "server throughput, 1 client (%s): %10.0f qps\n"
              "server throughput, 8 clients (%s): %10.0f qps\n"
              "router boot (%lld shards):               %10.2f ms\n"
              "router NDJSON round trip (trust):        %10.3f us\n"
              "router binary round trip (trust):        %10.3f us\n"
              "router throughput, 1 client:             %10.0f qps\n"
              "router throughput, 8 clients:            %10.0f qps\n"
              "router commit fan-out (all shards dirty): %9.2f ms\n"
              "router topk scatter:                     %10.3f us\n"
              "(checksums: %.3f %zu %zu %.3f %.3f %.3f %.3f)\n",
              boot_ms, durable_fresh_boot_ms, durable_boot_ms, trust_us,
              topk_us, explain_us, api_trust_us,
              api_trust_binary_us, commit_ms,
              static_cast<double>(categories_recomputed) / kCommits,
              noop_commit_us, protocol.c_str(), server_qps_c1,
              protocol.c_str(), server_qps_c8,
              static_cast<long long>(shards), router_boot_ms,
              router_trust_us, router_trust_binary_us, router_qps_c1,
              router_qps_c8, router_commit_ms, router_topk_us, checksum,
              topk_sum, term_sum, api_checksum, router_checksum,
              binary_checksum, router_binary_checksum);

  BenchReport report;
  report.AddString("bench", "micro_service");
  report.AddInt("users", static_cast<int64_t>(num_users));
  report.AddInt("categories", static_cast<int64_t>(dataset.num_categories()));
  report.AddInt("ratings", static_cast<int64_t>(dataset.num_ratings()));
  report.AddInt("queries", queries);
  report.AddNumber("boot_ms", boot_ms);
  report.AddNumber("durable_fresh_boot_ms", durable_fresh_boot_ms);
  report.AddNumber("durable_boot_ms", durable_boot_ms);
  report.AddNumber("trust_query_us", trust_us);
  report.AddNumber("topk10_query_us", topk_us);
  report.AddNumber("explain_query_us", explain_us);
  report.AddNumber("api_trust_roundtrip_us", api_trust_us);
  report.AddNumber("api_trust_roundtrip_us_binary", api_trust_binary_us);
  report.AddNumber("incremental_commit_ms", commit_ms);
  report.AddNumber("noop_commit_us", noop_commit_us);
  report.AddString("server_protocol", protocol);
  report.AddNumber("server_qps_1client", server_qps_c1);
  report.AddNumber("server_qps_8clients", server_qps_c8);
  report.AddInt("router_shards", shards);
  report.AddNumber("router_boot_ms", router_boot_ms);
  report.AddNumber("router_trust_roundtrip_us", router_trust_us);
  report.AddNumber("router_trust_roundtrip_us_binary",
                   router_trust_binary_us);
  report.AddNumber("router_qps_1client", router_qps_c1);
  report.AddNumber("router_qps_8clients", router_qps_c8);
  report.AddNumber("router_commit_fanout_ms", router_commit_ms);
  report.AddNumber("router_topk_scatter_us", router_topk_us);
  // The all-dirty commit overlaps its shard commits only as far as the
  // cores allow.
  report.AddInt("hardware_threads",
                static_cast<int64_t>(std::thread::hardware_concurrency()));

  // Price the instrumentation against a WOT_TELEMETRY_OFF twin's report:
  // same binary round trip and 8-client throughput, compiled with every
  // Record/Increment/WOT_TIMED a no-op.
  if (!off_report.empty()) {
    std::ifstream in(off_report);
    WOT_CHECK(in.good());
    std::stringstream text;
    text << in.rdbuf();
    Result<JsonValue> parsed = ParseJson(text.str());
    WOT_CHECK_OK(parsed.status());
    const double off_roundtrip_us =
        parsed.ValueOrDie()
            .GetDouble("api_trust_roundtrip_us_binary")
            .ValueOrDie();
    const double off_qps8 = parsed.ValueOrDie()
                                .GetDouble("server_qps_8clients")
                                .ValueOrDie();
    const double overhead_roundtrip_pct =
        (api_trust_binary_us - off_roundtrip_us) / off_roundtrip_us *
        100.0;
    const double overhead_qps8_pct =
        (off_qps8 - server_qps_c8) / off_qps8 * 100.0;
    std::printf("telemetry off round trip (binary):       %10.3f us\n"
                "telemetry off throughput, 8 clients:     %10.0f qps\n"
                "telemetry overhead (round trip):         %+9.2f %%\n"
                "telemetry overhead (8-client qps):       %+9.2f %%\n",
                off_roundtrip_us, off_qps8, overhead_roundtrip_pct,
                overhead_qps8_pct);
    report.AddNumber("telemetry_off_roundtrip_us_binary",
                     off_roundtrip_us);
    report.AddNumber("telemetry_off_qps_8clients", off_qps8);
    report.AddNumber("telemetry_overhead_roundtrip_pct",
                     overhead_roundtrip_pct);
    report.AddNumber("telemetry_overhead_qps8_pct", overhead_qps8_pct);
  }
  WOT_CHECK_OK(MaybeWriteJson(args, report));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace wot

int main(int argc, char** argv) { return wot::bench::Main(argc, argv); }
