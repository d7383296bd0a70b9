// In-process serving microbenchmark: TrustService boot cost (fresh,
// durable and recovered), per-query latency (Trust / TopK / ExplainTrust)
// against a published snapshot, the frontend round trip through each
// codec, the incremental commit (snapshot-swap) cost of folding in fresh
// ratings, and the same round trip, commit fan-out and topk scatter
// through an api::ShardRouter over --shards TrustService shards
// (same-shard query workload, so the routed path is measured, not the
// NOT_FOUND path). The socket server is measured by perfbench/, which
// checks its answers and filters host noise.
//
//   micro_service --users 4000 --seed 42
//   micro_service --users 4000 --shards 4 --json BENCH_service.json
//
// The NDJSON and v2 binary API round trips are both measured every run
// (api_trust_roundtrip_us vs api_trust_roundtrip_us_binary — the gap to
// trust_query_us is pure codec cost).
//
// Uses wall-clock batches (no Google Benchmark dependency) so it always
// builds; --json emits the machine-readable report tracked across PRs.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include <fstream>
#include <sstream>

#include <unistd.h>

#include "bench_util.h"
#include "wot/api/binary_codec.h"
#include "wot/api/codec.h"
#include "wot/io/json_parser.h"
#include "wot/api/frontend.h"
#include "wot/api/shard_router.h"
#include "wot/service/trust_service.h"
#include "wot/storage/storage_manager.h"
#include "wot/util/check.h"
#include "wot/util/stopwatch.h"

namespace wot {
namespace bench {
namespace {

// Source/target pair of query q: both in range, and in the same residue
// class mod `stride` so a ShardRouter with `stride` shards serves the
// routed (same-shard) path.
std::pair<size_t, size_t> QueryPair(int64_t q, size_t num_users,
                                    size_t stride) {
  size_t a = (static_cast<size_t>(q) * 7) % num_users;
  size_t b = a + stride * (1 + static_cast<size_t>(q) % 7);
  if (b >= num_users) b = a;  // keep the residue; a self-pair is valid
  return {a, b};
}

int Main(int argc, char** argv) {
  ExperimentArgs args;
  FlagParser flags("micro_service",
                   "TrustService query latency and snapshot-swap cost");
  RegisterCommonFlags(&flags, &args);
  RegisterJsonFlag(&flags, &args);
  int64_t queries = 20000;
  int64_t shards = 4;
  std::string off_report;
  flags.AddInt64("queries", &queries, "queries per measurement batch");
  flags.AddInt64("shards", &shards,
                 "shard count of the ShardRouter sections");
  flags.AddString("off_report", &off_report,
                  "--json report of a micro_service_off run "
                  "(WOT_TELEMETRY_OFF twin); adds telemetry_overhead_* "
                  "fields comparing this run against it");
  WOT_CHECK_OK(flags.Parse(argc, argv));
  WOT_CHECK_GT(queries, 0);
  WOT_CHECK_GT(shards, 0);

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
  // Per process: ctest runs several micro_service smokes at once.
  const std::string data_dir =
      (std::filesystem::temp_directory_path() /
       ("micro_service_durable_" + std::to_string(getpid())))
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

  // Sharded serving: boot a ShardRouter over the same seed dataset and
  // repeat the API round trip through it (same-shard pairs, so the
  // routed path is measured). The boot is
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
    auto [a, b] = QueryPair(q, num_users, static_cast<size_t>(shards));
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
    auto [a, b] = QueryPair(q, num_users, static_cast<size_t>(shards));
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
      const size_t a =
          QueryPair(q, num_users, static_cast<size_t>(shards)).first;
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
              "router boot (%lld shards):               %10.2f ms\n"
              "router NDJSON round trip (trust):        %10.3f us\n"
              "router binary round trip (trust):        %10.3f us\n"
              "router commit fan-out (all shards dirty): %9.2f ms\n"
              "router topk scatter:                     %10.3f us\n"
              "(checksums: %.3f %zu %zu %.3f %.3f %.3f %.3f)\n",
              boot_ms, durable_fresh_boot_ms, durable_boot_ms, trust_us,
              topk_us, explain_us, api_trust_us,
              api_trust_binary_us, commit_ms,
              static_cast<double>(categories_recomputed) / kCommits,
              noop_commit_us, static_cast<long long>(shards),
              router_boot_ms, router_trust_us, router_trust_binary_us,
              router_commit_ms, router_topk_us, checksum,
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
  report.AddInt("router_shards", shards);
  report.AddNumber("router_boot_ms", router_boot_ms);
  report.AddNumber("router_trust_roundtrip_us", router_trust_us);
  report.AddNumber("router_trust_roundtrip_us_binary",
                   router_trust_binary_us);
  report.AddNumber("router_commit_fanout_ms", router_commit_ms);
  report.AddNumber("router_topk_scatter_us", router_topk_us);
  // The all-dirty commit overlaps its shard commits only as far as the
  // cores allow.
  report.AddInt("hardware_threads",
                static_cast<int64_t>(std::thread::hardware_concurrency()));

  // Price the instrumentation against a WOT_TELEMETRY_OFF twin's report:
  // the same binary round trip, compiled with every
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
    const double overhead_roundtrip_pct =
        (api_trust_binary_us - off_roundtrip_us) / off_roundtrip_us *
        100.0;
    std::printf("telemetry off round trip (binary):       %10.3f us\n"
                "telemetry overhead (round trip):         %+9.2f %%\n",
                off_roundtrip_us, overhead_roundtrip_pct);
    report.AddNumber("telemetry_off_roundtrip_us_binary",
                     off_roundtrip_us);
    report.AddNumber("telemetry_overhead_roundtrip_pct",
                     overhead_roundtrip_pct);
  }
  WOT_CHECK_OK(MaybeWriteJson(args, report));
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace wot

int main(int argc, char** argv) { return wot::bench::Main(argc, argv); }
