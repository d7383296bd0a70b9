#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <thread>
#include <variant>

#include "community.h"
#include "loadgen.h"
#include "wot/api/binary_codec.h"
#include "wot/api/client.h"
#include "wot/api/frontend.h"
#include "wot/api/shard_router.h"
#include "wot/api/unix_socket.h"
#include "wot/community/indices.h"
#include "wot/replication/replica_frontend.h"
#include "wot/replication/replica_handle_impl.h"
#include "wot/replication/replica_service.h"
#include "wot/replication/replication_source.h"
#include "wot/server/connection_server.h"
#include "wot/service/dataset_shard.h"
#include "wot/service/trust_service.h"
#include "wot/storage/durable_boot.h"
#include "wot/storage/storage_manager.h"

namespace perfbench {
namespace {

namespace api = wot::api;
using wot::Dataset;
using wot::Result;
using wot::Status;
using wot::TrustService;
using wot::TrustSnapshot;
using SnapshotPtr = std::shared_ptr<const TrustSnapshot>;

constexpr int kRatingsPerBatch = 10;
// p90 needs ten samples beyond it.
constexpr int64_t kMinCommits = 100;
constexpr int64_t kMinTracedCommits = 20;
// No run may approach the 180 s budget, whatever the program's speed.
constexpr double kHardCapSeconds = 150.0;
constexpr size_t kShards = 4;
// Boots per run; setup_s is the median of the least-stolen of them.
constexpr int kSetupRepeats = 9;
constexpr size_t kOpsPerRun = 1 << 20;
// One topk answer in this many is recomputed and compared; every trust
// answer is.
constexpr uint32_t kTopKCheckStride = 4;
// Fixed-rate segments per run.
constexpr int kSegments = 20;
// Spans a traced run keeps (and writes out).
constexpr size_t kMaxSpans = 60000;

std::string Fmt(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// Generated inputs.

// Reads: a `topk_frac` share of topk, the rest trust; sources uniform;
// targets uniform, or uniform within the source's residue class mod
// `stride` so a `stride`-shard router serves them on one shard.
std::vector<Op> MakeOps(uint64_t seed, size_t users, double topk_frac,
                        size_t stride) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_int_distribution<size_t> user(0, users - 1);
  std::vector<Op> ops(kOpsPerRun);
  for (Op& op : ops) {
    op.kind = unit(rng) < topk_frac ? kTopK : kTrust;
    const size_t a = user(rng);
    const size_t residue = a % stride;
    const size_t members = (users - residue + stride - 1) / stride;
    const size_t b =
        residue +
        stride * std::uniform_int_distribution<size_t>(0, members - 1)(rng);
    op.source = static_cast<uint32_t>(a);
    op.target = static_cast<uint32_t>(b);
  }
  return ops;
}

// ---------------------------------------------------------------------------
// The serving stack's socket front.

class ServerHarness {
 public:
  ServerHarness(api::Frontend* frontend, int threads, std::string path)
      : server_(frontend, Options(threads)), path_(std::move(path)) {}
  ~ServerHarness() {
    if (thread_.joinable()) {
      server_.RequestStop();
      thread_.join();
    }
    ::unlink(path_.c_str());
  }
  ServerHarness(const ServerHarness&) = delete;
  ServerHarness& operator=(const ServerHarness&) = delete;

  Status Start() {
    ::unlink(path_.c_str());
    WOT_ASSIGN_OR_RETURN(int fd, api::ListenUnixSocket(path_, 64));
    thread_ = std::thread([this, fd] { (void)server_.Serve(fd); });
    return Status::OK();
  }
  const std::string& path() const { return path_; }
  wot::telemetry::MetricsSnapshot Scrape() const {
    return server_.metrics_registry()->Scrape();
  }

 private:
  static wot::server::ConnectionServerOptions Options(int threads) {
    wot::server::ConnectionServerOptions options;
    options.num_threads = threads;
    return options;
  }
  wot::server::ConnectionServer server_;
  const std::string path_;
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Answer oracles.

bool SameTopK(const std::vector<wot::ScoredUser>& expected,
              const api::TopKResult& got,
              const std::function<uint32_t(uint32_t)>& to_wire) {
  if (expected.size() != got.trustees.size()) return false;
  for (size_t r = 0; r < expected.size(); ++r) {
    if (to_wire(expected[r].user) != got.trustees[r].user ||
        expected[r].score != got.trustees[r].score) {
      return false;
    }
  }
  return true;
}

// Recent published snapshots by version, so answers served while a
// writer commits can be checked against the exact snapshot they name.
class SnapshotRing {
 public:
  void Push(SnapshotPtr snapshot) {
    std::lock_guard<std::mutex> lock(mu_);
    ring_.push_back(std::move(snapshot));
    if (ring_.size() > 4) ring_.pop_front();
  }
  SnapshotPtr Find(uint64_t version) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SnapshotPtr& snapshot : ring_) {
      if (snapshot->version() == version) return snapshot;
    }
    return nullptr;
  }

 private:
  mutable std::mutex mu_;
  std::deque<SnapshotPtr> ring_;
};

// Checks answers of one unsharded service against the snapshot whose
// version each answer names: from the ring, or the service's latest
// snapshot when the writer has not pushed it yet. Answers naming a
// version that left the ring are counted as unchecked.
Checker ServiceChecker(SnapshotRing* ring, const TrustService* service,
                       std::atomic<int64_t>* unchecked) {
  auto snapshot_of = [ring, service](uint64_t version) {
    SnapshotPtr snapshot = ring->Find(version);
    if (snapshot != nullptr) return snapshot;
    snapshot = service->Snapshot();
    return snapshot->version() == version ? snapshot : nullptr;
  };
  return [snapshot_of, unchecked](const Op& op,
                                  const api::Response& response) {
    uint64_t version = 0;
    const auto* trust = std::get_if<api::TrustResult>(&response.payload);
    const auto* topk = std::get_if<api::TopKResult>(&response.payload);
    if (op.kind == kTrust) {
      if (trust == nullptr) return false;
      version = trust->snapshot_version;
    } else {
      if (topk == nullptr) return false;
      if (op.source % kTopKCheckStride != 0) return true;
      version = topk->snapshot_version;
    }
    SnapshotPtr snapshot = snapshot_of(version);
    if (snapshot == nullptr) {
      unchecked->fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (op.kind == kTrust) {
      return trust->trust == snapshot->Trust(op.source, op.target);
    }
    return SameTopK(snapshot->TopK(op.source, kTopKWidth), *topk,
                    [](uint32_t user) { return user; });
  };
}

// Corrupts the 100th trust answer by one ulp before it is judged: a
// seeded wrong answer that the check must catch.
Checker WithInjectedFault(Checker inner, bool inject) {
  if (!inject) return inner;
  auto seen = std::make_shared<std::atomic<int64_t>>(0);
  return [inner = std::move(inner), seen](const Op& op,
                                          const api::Response& response) {
    if (op.kind == kTrust && seen->fetch_add(1) == 100) {
      api::Response wrong = response;
      if (auto* result = std::get_if<api::TrustResult>(&wrong.payload)) {
        result->trust = std::nextafter(result->trust, 2.0);
      }
      return inner(op, wrong);
    }
    return inner(op, response);
  };
}

// ---------------------------------------------------------------------------
// Read phases.

// Latency samples of the measured read phases, kept with their due
// times so a tail percentile can be taken per time window.
struct ReadStats {
  std::vector<std::pair<int64_t, double>> trust;  // (due ns, latency µs)
  std::vector<std::pair<int64_t, double>> topk;
  std::vector<double> late_us;
  int64_t sent = 0;

  void Add(const PhaseResult& phase) {
    for (const RequestRecord& record : phase.records) {
      if (record.outcome != Outcome::kOk) continue;
      const double us =
          static_cast<double>(record.done_ns - record.due_ns) / 1e3;
      (record.kind == kTrust ? trust : topk).push_back({record.due_ns, us});
    }
    const std::vector<double> late = phase.LatenessUs();
    late_us.insert(late_us.end(), late.begin(), late.end());
    sent += static_cast<int64_t>(late.size());
  }

  void Merge(const ReadStats& other) {
    trust.insert(trust.end(), other.trust.begin(), other.trust.end());
    topk.insert(topk.end(), other.topk.begin(), other.topk.end());
    late_us.insert(late_us.end(), other.late_us.begin(), other.late_us.end());
    sent += other.sent;
  }
};

// Hypervisor steal above this share of a phase's CPU time marks the phase
// as measuring the host, not the program.
constexpr double kCleanSteal = 0.01;

// One fixed-rate segment and the CPU share stolen while it ran.
struct Segment {
  ReadStats stats;
  double steal = 0.0;
};

// Which measurements of a run count: those taken with at most
// kCleanSteal of the CPU stolen, or, when fewer than half were, the half
// with the least steal. Returns their indices and reports how many were
// used and the run's mean steal as <prefix>used and <prefix>steal_frac.
std::vector<size_t> CleanIndices(const std::vector<double>& steal,
                                 const std::string& prefix, Report* report) {
  std::vector<size_t> order(steal.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return steal[a] < steal[b]; });
  size_t used = 0;
  double steal_sum = 0.0;
  for (double stolen : steal) {
    steal_sum += stolen;
    if (stolen <= kCleanSteal) ++used;
  }
  order.resize(std::max(used, (order.size() + 1) / 2));
  const auto n = static_cast<int64_t>(steal.size());
  report->Add(prefix + "used", "count", static_cast<double>(order.size()), n);
  report->Add(prefix + "steal_frac", "ratio",
              n > 0 ? steal_sum / static_cast<double>(n) : 0.0, n);
  return order;
}

ReadStats CleanSegments(const std::vector<Segment>& segments,
                        const std::string& prefix, Report* report) {
  std::vector<double> steal;
  for (const Segment& segment : segments) steal.push_back(segment.steal);
  ReadStats merged;
  for (size_t i : CleanIndices(steal, prefix, report)) {
    merged.Merge(segments[i].stats);
  }
  return merged;
}

std::vector<double> Latencies(
    const std::vector<std::pair<int64_t, double>>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& sample : samples) out.push_back(sample.second);
  return out;
}

// Windows hold at least this many samples, so each window's p99 has ten
// samples beyond it.
constexpr size_t kMinWindowSamples = 1000;
constexpr size_t kMaxWindows = 20;

// The q-quantile of each of up to kMaxWindows consecutive, equally sized
// windows of the samples (in due-time order), and their median: a burst
// of host noise moves the windows it falls in, not the reported tail.
double WindowedQuantile(std::vector<std::pair<int64_t, double>> samples,
                        double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t count =
      std::clamp<size_t>(samples.size() / kMinWindowSamples, 1, kMaxWindows);
  const size_t size = samples.size() / count;
  std::vector<double> per_window;
  for (size_t w = 0; w < count; ++w) {
    std::vector<double> window;
    for (size_t i = w * size; i < (w + 1) * size; ++i) {
      window.push_back(samples[i].second);
    }
    per_window.push_back(Quantile(window, q));
  }
  return Median(per_window);
}

// (due ns, µs) samples of a phase: trust latency of OK requests, or the
// generator's lateness of every sent request.
std::vector<std::pair<int64_t, double>> TrustSamples(
    const PhaseResult& phase) {
  std::vector<std::pair<int64_t, double>> out;
  for (const RequestRecord& record : phase.records) {
    if (record.kind == kTrust && record.outcome == Outcome::kOk) {
      out.push_back({record.due_ns,
                     static_cast<double>(record.done_ns - record.due_ns) /
                         1e3});
    }
  }
  return out;
}

std::vector<std::pair<int64_t, double>> LatenessSamples(
    const PhaseResult& phase) {
  std::vector<std::pair<int64_t, double>> out;
  for (const RequestRecord& record : phase.records) {
    if (record.sent_ns != 0) {
      out.push_back({record.due_ns,
                     static_cast<double>(record.sent_ns - record.due_ns) /
                         1e3});
    }
  }
  return out;
}

struct Counts {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Add(int64_t a, int64_t f) {
    attempted += a;
    failed += f;
  }
};

// The fixed offered-rate ladder, walked one rung at a time. A rung
// passes when every request came back right, trust p99 is under the
// limit, the generator itself was not late by more than the limit (both
// p99s windowed, see WindowedQuantile), and the backlog did not grow (the
// last quarter's median latency stays under a quarter of the limit). A
// failing rung is retried once, so one scheduling hiccup on a shared host
// does not end the ladder, and up to three times while the hypervisor
// steals more than kCleanSteal of the CPU; the ladder stops at a rung
// whose tries all fail.
class Ladder {
 public:
  Ladder(OpenLoopGenerator* generator, const std::vector<Op>* ops,
         std::vector<double> rungs, double rung_seconds, double limit_us)
      : generator_(generator),
        ops_(ops),
        rungs_(std::move(rungs)),
        rung_seconds_(rung_seconds),
        limit_us_(limit_us) {}

  bool done() const { return next_ >= rungs_.size(); }
  double max_qps() const { return max_qps_; }

  /// Runs the next rung (and its retry).
  void Step(Counts* counts, std::vector<std::string>* notes) {
    if (done()) return;
    const double rate = rungs_[next_];
    bool passed = false;
    int tries = 2;
    for (int attempt = 0; attempt < tries && !passed; ++attempt) {
      const CpuTimes before = ReadCpuTimes();
      PhaseResult phase = generator_->Run(*ops_, rate, rung_seconds_, false);
      const double steal = StealFrac(before, ReadCpuTimes());
      counts->Add(static_cast<int64_t>(phase.records.size()),
                  phase.failed());
      const double p99 = WindowedQuantile(TrustSamples(phase), 0.99);
      const double late = WindowedQuantile(LatenessSamples(phase), 0.99);
      std::vector<double> last_quarter;
      for (size_t i = phase.records.size() * 3 / 4;
           i < phase.records.size(); ++i) {
        const RequestRecord& record = phase.records[i];
        if (record.outcome == Outcome::kOk) {
          last_quarter.push_back(
              static_cast<double>(record.done_ns - record.due_ns) / 1e3);
        }
      }
      const bool backlog_ok = Median(last_quarter) <= limit_us_ / 4;
      passed = phase.failed() == 0 && p99 <= limit_us_ &&
               late <= limit_us_ && backlog_ok;
      // A try the host stole from does not count against the rung.
      if (!passed && steal > kCleanSteal) tries = std::min(tries + 1, 4);
      notes->push_back("rung " + Fmt(rate) + "/s try " +
                       std::to_string(attempt + 1) + ": trust_p99_us=" +
                       Fmt(p99) + " late_p99_us=" + Fmt(late) +
                       " steal=" + Fmt(steal) + " failed=" +
                       std::to_string(phase.failed()) +
                       (passed ? " pass" : " FAIL"));
    }
    if (passed) {
      max_qps_ = rate;
      ++next_;
    } else {
      next_ = rungs_.size();
    }
  }

 private:
  OpenLoopGenerator* generator_;
  const std::vector<Op>* ops_;
  const std::vector<double> rungs_;
  const double rung_seconds_;
  const double limit_us_;
  size_t next_ = 0;
  double max_qps_ = 0.0;
};

// ---------------------------------------------------------------------------
// The writer: closed-loop batches of 1 new user + 10 ratings, then a
// commit, then a stats probe, over its own connection.

class CommitWriter {
 public:
  /// Picks the wire review id a new rater rates (distinctness is the
  /// writer's job).
  using ReviewPicker =
      std::function<int64_t(int64_t rater, std::mt19937_64& rng)>;
  using OnCommit = std::function<void(uint64_t version)>;

  CommitWriter(uint64_t seed, ReviewPicker picker,
               std::function<void()> before_commit, OnCommit on_commit)
      : rng_(seed ^ 0x9e3779b97f4a7c15ULL),
        seed_(seed),
        picker_(std::move(picker)),
        before_commit_(std::move(before_commit)),
        on_commit_(std::move(on_commit)) {}

  Status Connect(const std::string& path) {
    WOT_ASSIGN_OR_RETURN(client_, api::SocketClient::Connect(
                                      path, api::WireProtocol::kBinary));
    WOT_ASSIGN_OR_RETURN(api::StatsResult stats, Stats());
    users_ = stats.users;
    ratings_ = stats.ratings;
    version_ = stats.snapshot_version;
    return Status::OK();
  }

  /// One batch. Every request counts as attempted; any non-OK answer or
  /// failed invariant counts as failed.
  void Batch() {
    const int64_t batch = batches_++;
    api::IngestUser user;
    user.name = "bench-writer-" + std::to_string(seed_) + "-" +
                std::to_string(batch);
    Result<api::Response> added = Call(user);
    int64_t rater = -1;
    if (Ok(added)) {
      rater = std::get<api::IngestResult>(added.ValueOrDie().payload)
                  .assigned_id;
      Expect(rater == users_, "new user id " + std::to_string(rater) +
                                  " != expected " + std::to_string(users_));
    }
    std::vector<int64_t> reviews;
    int64_t accepted = 0;
    while (rater >= 0 && reviews.size() < kRatingsPerBatch) {
      const int64_t review = picker_(rater, rng_);
      if (std::find(reviews.begin(), reviews.end(), review) !=
          reviews.end()) {
        continue;
      }
      reviews.push_back(review);
      api::IngestRating rating;
      rating.rater = std::to_string(rater);
      rating.review = review;
      rating.value = 0.2 * static_cast<double>(1 + rng_() % 5);
      if (Ok(Call(rating))) ++accepted;
    }
    if (before_commit_) before_commit_();
    const CpuTimes cpu_before = ReadCpuTimes();
    const int64_t start = NowNs();
    Result<api::Response> committed = Call(api::CommitRequest{});
    const double elapsed_ms = static_cast<double>(NowNs() - start) / 1e6;
    const double steal = StealFrac(cpu_before, ReadCpuTimes());
    if (Ok(committed)) {
      const auto& result =
          std::get<api::CommitResult>(committed.ValueOrDie().payload);
      commit_ms.push_back(elapsed_ms);
      commit_steal.push_back(steal);
      committed_.fetch_add(1);
      categories_recomputed += result.categories_recomputed;
      affiliation_rows += result.affiliation_rows_recomputed;
      postings_rebuilt += result.postings_rebuilt;
      Expect(result.published && result.snapshot_version > version_,
             "commit version " + std::to_string(result.snapshot_version) +
                 " does not follow " + std::to_string(version_));
      version_ = result.snapshot_version;
      if (on_commit_) on_commit_(version_);
    }
    ++attempted;  // the stats probe
    Result<api::StatsResult> stats = Stats();
    if (!stats.ok()) {
      Fail("stats: " + stats.status().ToString());
      return;
    }
    users_ += 1;
    ratings_ += accepted;
    Expect(stats.ValueOrDie().users == users_ &&
               stats.ValueOrDie().ratings == ratings_,
           "snapshot after commit counts " +
               std::to_string(stats.ValueOrDie().ratings) +
               " ratings, expected " + std::to_string(ratings_));
  }

  /// Safe to read from another thread while Batch() runs.
  int64_t commits() const { return committed_.load(); }

  std::vector<double> commit_ms;
  std::vector<double> commit_steal;  ///< CPU share stolen during each
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t categories_recomputed = 0;
  int64_t affiliation_rows = 0;
  int64_t postings_rebuilt = 0;
  std::string first_error;

 private:
  Result<api::Response> Call(api::RequestPayload payload) {
    ++attempted;
    api::Request request;
    request.id = next_id_++;
    request.payload = std::move(payload);
    return client_->Call(request);
  }
  Result<api::StatsResult> Stats() {
    api::Request request;
    request.id = next_id_++;
    request.payload = api::StatsRequest{};
    WOT_ASSIGN_OR_RETURN(api::Response response, client_->Call(request));
    if (!response.status.ok()) {
      return Status::Internal(response.status.ToString());
    }
    return std::get<api::StatsResult>(response.payload);
  }
  bool Ok(const Result<api::Response>& response) {
    if (!response.ok()) {
      Fail(response.status().ToString());
      return false;
    }
    if (!response.ValueOrDie().status.ok()) {
      Fail(response.ValueOrDie().status.ToString());
      return false;
    }
    return true;
  }
  void Expect(bool condition, const std::string& what) {
    if (!condition) Fail(what);
  }
  void Fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }

  std::unique_ptr<api::SocketClient> client_;
  std::mt19937_64 rng_;
  const uint64_t seed_;
  const ReviewPicker picker_;
  const std::function<void()> before_commit_;
  const OnCommit on_commit_;
  int64_t next_id_ = 1;
  int64_t batches_ = 0;
  int64_t users_ = 0;
  int64_t ratings_ = 0;
  uint64_t version_ = 0;
  std::atomic<int64_t> committed_{0};
};

// ---------------------------------------------------------------------------
// Layer timing from outside.

// Median over `reps` passes of the mean per-call time of fn(i), i in
// [0, n), in ns.
template <typename Fn>
double TimePerCall(size_t n, int reps, Fn&& fn) {
  std::vector<double> means;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t start = NowNs();
    for (size_t i = 0; i < n; ++i) fn(i);
    means.push_back(static_cast<double>(NowNs() - start) /
                    static_cast<double>(std::max<size_t>(n, 1)));
  }
  return Median(means);
}

double MedianOfRepeats(int reps, const std::function<void()>& fn) {
  std::vector<double> times;
  for (int rep = 0; rep < reps; ++rep) {
    const int64_t start = NowNs();
    fn();
    times.push_back(static_cast<double>(NowNs() - start));
  }
  return Median(times);
}

std::vector<Op> OpsOfKind(const std::vector<Op>& ops, OpKind kind,
                          size_t limit) {
  std::vector<Op> out;
  for (const Op& op : ops) {
    if (out.size() == limit) break;
    if (op.kind == kind) out.push_back(op);
  }
  return out;
}

std::vector<api::Request> RequestsOf(const std::vector<Op>& ops) {
  std::vector<api::Request> requests;
  requests.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    requests.push_back(MakeRequest(ops[i], static_cast<int64_t>(i) + 1));
  }
  return requests;
}

// The v2 binary codec's cost per call: client encode, server decode,
// server encode of the real answer, client decode.
double CodecNs(api::Frontend& frontend,
               const std::vector<api::Request>& requests) {
  std::vector<api::Response> responses;
  responses.reserve(requests.size());
  for (const api::Request& request : requests) {
    responses.push_back(frontend.Dispatch(request));
  }
  int64_t sink = 0;
  const double ns = TimePerCall(requests.size(), 5, [&](size_t i) {
    std::string frame = api::EncodeRequestBinary(requests[i]);
    api::Request decoded_request;
    (void)api::DecodeRequestBinary(frame, &decoded_request);
    std::string reply = api::EncodeResponseBinary(responses[i]);
    api::Response decoded_response;
    (void)api::DecodeResponseBinary(reply, &decoded_response);
    sink += decoded_request.id + decoded_response.id;
  });
  return sink == -1 ? 0.0 : ns;
}

// Typed Frontend::Dispatch per call, in ns.
double DispatchNs(api::Frontend& frontend,
                  const std::vector<api::Request>& requests) {
  int64_t sink = 0;
  const double ns = TimePerCall(requests.size(), 5, [&](size_t i) {
    sink += frontend.Dispatch(requests[i]).id;
  });
  return sink == -1 ? 0.0 : ns;
}

// Unloaded closed-loop round trip of one connection, per call, in ns.
Result<double> RoundTripNs(const std::string& path,
                           const std::vector<api::Request>& requests) {
  WOT_ASSIGN_OR_RETURN(
      std::unique_ptr<api::SocketClient> client,
      api::SocketClient::Connect(path, api::WireProtocol::kBinary));
  Status failure = Status::OK();
  const double ns = TimePerCall(requests.size(), 3, [&](size_t i) {
    Result<api::Response> response = client->Call(requests[i]);
    if (!response.ok()) failure = response.status();
  });
  WOT_RETURN_IF_ERROR(failure);
  return ns;
}

double DeltaMean(const wot::telemetry::MetricsSnapshot& before,
                 const wot::telemetry::MetricsSnapshot& after,
                 const std::string& name, int64_t* count) {
  const auto* histogram = FindHistogram(after, name);
  if (histogram == nullptr) {
    if (count != nullptr) *count = 0;
    return 0.0;
  }
  wot::telemetry::HistogramSnapshot delta =
      HistogramDelta(*histogram, FindHistogram(before, name));
  if (count != nullptr) *count = delta.count;
  return HistogramMean(delta);
}

// Writes spans as CSV: request, span name, start and end (steady-clock ns).
Status WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return Status::IOError("cannot write " + path);
  static const char* kNames[] = {"schedule", "round_trip", "check"};
  std::fprintf(file, "request,span,start_ns,end_ns\n");
  for (const Span& span : spans) {
    std::fprintf(file, "%u,%s,%lld,%lld\n", span.request, kNames[span.name],
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0 ? Status::OK()
                                : Status::IOError("cannot write " + path);
}

// ---------------------------------------------------------------------------
// One workload's serving stack: what the server fronts, how answers are
// checked, how the writer picks reviews, and the stack's own layers.

class Stack {
 public:
  virtual ~Stack() = default;

  /// What the ConnectionServer serves.
  virtual api::Frontend* frontend() = 0;
  /// Judges read answers (see ServiceChecker).
  virtual Checker MakeChecker(std::atomic<int64_t>* unchecked) = 0;
  /// The wire review id a new rater rates.
  virtual int64_t PickReview(int64_t rater, std::mt19937_64& rng) = 0;
  /// Called after each of the writer's commits.
  virtual void OnCommit(uint64_t version) { (void)version; }
  /// Merged scrape of every commit-path registry (services, storage).
  virtual wot::telemetry::MetricsSnapshot ScrapeCommitPath() const = 0;
  /// DatasetIndices over the staged dataset that commits rebuild it for.
  virtual double IndicesNs() = 0;
  /// Durability counters of the storage, if the stack has any.
  virtual bool durable() const { return false; }
  virtual wot::DurabilityStats durability() const { return {}; }
  /// Untraced correctness checks beyond the read answers (counts into
  /// attempted / failed).
  virtual void ExtraChecks(const std::vector<Op>& ops, Counts* counts,
                           std::vector<std::string>* notes) {
    (void)ops;
    (void)counts;
    (void)notes;
  }
  /// The traced read-path ledger: adds each layer's self time on this
  /// run's ops and returns their sum (what a trust p50 attributes).
  virtual Result<double> AddReadLedger(const std::vector<Op>& ops,
                                       const std::string& socket,
                                       Report* report) = 0;
};

// The read ledger of one unsharded ServiceFrontend over one service.
Result<double> ServiceReadLedger(TrustService& service,
                                 api::Frontend& frontend,
                                 const std::vector<Op>& ops,
                                 const std::string& socket, Report* report) {
  const std::vector<Op> trust_ops = OpsOfKind(ops, kTrust, 20000);
  const std::vector<Op> topk_ops = OpsOfKind(ops, kTopK, 2000);
  SnapshotPtr snapshot = service.Snapshot();
  double sink = 0.0;
  const double trust_ns = TimePerCall(trust_ops.size(), 5, [&](size_t i) {
    sink += snapshot->Trust(trust_ops[i].source, trust_ops[i].target);
  });
  const double topk_ns = TimePerCall(topk_ops.size(), 3, [&](size_t i) {
    sink += static_cast<double>(
        snapshot->TopK(topk_ops[i].source, kTopKWidth).size());
  });
  const std::vector<api::Request> trust_requests = RequestsOf(trust_ops);
  const std::vector<api::Request> probe(trust_requests.begin(),
                                        trust_requests.begin() + 5000);
  const double codec_trust = CodecNs(frontend, probe);
  const double codec_topk = CodecNs(frontend, RequestsOf(topk_ops));
  const double dispatch_ns = DispatchNs(frontend, trust_requests);
  WOT_ASSIGN_OR_RETURN(double rtt_ns, RoundTripNs(socket, probe));
  const auto trust_n = static_cast<int64_t>(trust_ops.size());
  report->Add("service.trust_ns", "ns", trust_ns, trust_n);
  report->Add("service.topk_ns", "ns", topk_ns,
              static_cast<int64_t>(topk_ops.size()));
  report->Add("api.codec_trust_ns", "ns", codec_trust, 5000);
  report->Add("api.codec_topk_ns", "ns", codec_topk,
              static_cast<int64_t>(topk_ops.size()));
  report->Add("api.frontend_self_ns", "ns", dispatch_ns - trust_ns, trust_n);
  report->Add("server.rtt_ns", "ns", rtt_ns, 5000);
  report->Add("server.self_ns", "ns", rtt_ns - codec_trust - dispatch_ns,
              5000);
  if (sink == -1.0) return 0.0;
  // trust + frontend self + codec + server self == the unloaded round trip.
  return rtt_ns;
}

// --- point_read and commit_churn: one service behind one ServiceFrontend,
// in memory (point_read) or durable and recovered (commit_churn).

class ServiceStack : public Stack {
 public:
  static constexpr wot::storage::FsyncPolicy kFsync =
      wot::storage::FsyncPolicy::kBatch;

  static Result<std::unique_ptr<Stack>> InMemory(const Dataset& dataset) {
    WOT_ASSIGN_OR_RETURN(std::unique_ptr<TrustService> service,
                         TrustService::Create(dataset));
    return Wrap(std::move(service), nullptr, dataset);
  }

  /// The untimed prep step: a fresh durable boot that writes \p dir.
  static Status PrepareDurable(const std::string& dir,
                               const Dataset& dataset) {
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    WOT_ASSIGN_OR_RETURN(wot::storage::StorageManager::BootResult boot,
                         Boot(dir, dataset));
    boot.manager->WaitForIdle();
    boot.service.reset();  // detaches from the manager before it closes
    return Status::OK();
  }

  /// A recovered boot of the directory PrepareDurable wrote.
  static Result<std::unique_ptr<Stack>> Recover(const std::string& dir,
                                                const Dataset& dataset) {
    WOT_ASSIGN_OR_RETURN(wot::storage::StorageManager::BootResult boot,
                         Boot(dir, dataset));
    if (!boot.recovered) {
      return Status::Internal("data dir " + dir + " was not recovered");
    }
    return Wrap(std::move(boot.service), std::move(boot.manager), dataset);
  }

  ~ServiceStack() override {
    frontend_.reset();
    service_.reset();  // detaches from the manager before it closes
    manager_.reset();
  }

  api::Frontend* frontend() override { return frontend_.get(); }
  Checker MakeChecker(std::atomic<int64_t>* unchecked) override {
    return ServiceChecker(&ring_, service_.get(), unchecked);
  }
  int64_t PickReview(int64_t, std::mt19937_64& rng) override {
    return static_cast<int64_t>(rng() % num_reviews_);
  }
  void OnCommit(uint64_t) override { ring_.Push(service_->Snapshot()); }
  wot::telemetry::MetricsSnapshot ScrapeCommitPath() const override {
    wot::telemetry::MetricsSnapshot scrape =
        service_->metrics_registry()->Scrape();
    if (manager_ != nullptr) {
      scrape.MergeFrom(manager_->metrics_registry()->Scrape());
    }
    return scrape;
  }
  double IndicesNs() override {
    const Dataset& staged = service_->staged_dataset();
    return MedianOfRepeats(3, [&] { wot::DatasetIndices indices(staged); });
  }
  bool durable() const override { return manager_ != nullptr; }
  wot::DurabilityStats durability() const override {
    return service_->durability_stats();
  }
  Result<double> AddReadLedger(const std::vector<Op>& ops,
                               const std::string& socket,
                               Report* report) override {
    return ServiceReadLedger(*service_, *frontend_, ops, socket, report);
  }

 private:
  ServiceStack() = default;

  static Result<wot::storage::StorageManager::BootResult> Boot(
      const std::string& dir, const Dataset& dataset) {
    wot::storage::StorageOptions options;
    options.fsync = kFsync;
    return wot::storage::StorageManager::Boot(
        dir, [&dataset] { return Result<Dataset>(dataset); }, {}, options);
  }

  static std::unique_ptr<Stack> Wrap(
      std::unique_ptr<TrustService> service,
      std::unique_ptr<wot::storage::StorageManager> manager,
      const Dataset& dataset) {
    auto stack = std::unique_ptr<ServiceStack>(new ServiceStack);
    stack->manager_ = std::move(manager);
    stack->service_ = std::move(service);
    stack->frontend_ =
        std::make_unique<api::ServiceFrontend>(stack->service_.get());
    stack->ring_.Push(stack->service_->Snapshot());
    stack->num_reviews_ = dataset.num_reviews();
    return stack;
  }

  std::unique_ptr<wot::storage::StorageManager> manager_;  // null in memory
  std::unique_ptr<TrustService> service_;
  std::unique_ptr<api::ServiceFrontend> frontend_;
  SnapshotRing ring_;
  size_t num_reviews_ = 0;
};

// --- replicated_mix: a durable 4-shard router, one replica per shard.

class ReplicatedStack : public Stack {
 public:
  static Result<std::unique_ptr<Stack>> Create(const std::string& dir,
                                               const Dataset& dataset) {
    namespace repl = wot::replication;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    auto stack = std::unique_ptr<ReplicatedStack>(new ReplicatedStack);
    wot::storage::DurableBootOptions options;
    options.num_shards = kShards;
    options.storage.fsync = wot::storage::FsyncPolicy::kOff;
    options.storage.keep_segments = 4;
    WOT_ASSIGN_OR_RETURN(
        stack->primary_,
        wot::storage::BootDurable(
            dir + "/primary", [&dataset] { return Result<Dataset>(dataset); },
            options));
    api::ShardRouter* router = stack->primary_.router.get();
    if (router == nullptr) return Status::Internal("no router booted");
    stack->source_ = std::make_unique<repl::ReplicationSource>(
        dir + "/primary", kShards, [router](int64_t shard) {
          return router->shard_service(static_cast<size_t>(shard))
              ->Snapshot()
              ->version();
        });
    router->set_replication_handler(stack->source_.get());
    for (size_t s = 0; s < kShards; ++s) {
      repl::ReplicaOptions replica_options;
      replica_options.shard = static_cast<int64_t>(s);
      replica_options.poll_millis = 20;
      replica_options.storage.fsync = wot::storage::FsyncPolicy::kOff;
      WOT_ASSIGN_OR_RETURN(
          std::unique_ptr<repl::ReplicaService> replica,
          repl::ReplicaService::Create(
              dir + "/replica-" + std::to_string(s),
              std::make_unique<api::LoopbackClient>(
                  router, /*through_codec=*/true, api::WireProtocol::kBinary),
              replica_options));
      WOT_RETURN_IF_ERROR(replica->CatchUp());
      auto inner = std::make_unique<api::ServiceFrontend>(replica->service());
      auto serving =
          std::make_unique<repl::ReplicaFrontend>(inner.get(), replica.get());
      api::Frontend* target = serving.get();
      auto handle = std::make_shared<repl::ClientReplicaHandle>(
          "loopback:" + std::to_string(s),
          [target]() -> Result<std::unique_ptr<api::ApiClient>> {
            return std::unique_ptr<api::ApiClient>(
                std::make_unique<api::LoopbackClient>(
                    target, /*through_codec=*/true,
                    api::WireProtocol::kBinary));
          });
      router->AddReplica(s, handle);
      stack->shard_frontends_.push_back(
          std::make_unique<api::ServiceFrontend>(router->shard_service(s)));
      stack->replicas_.push_back(std::move(replica));
      stack->inners_.push_back(std::move(inner));
      stack->serving_.push_back(std::move(serving));
      stack->handles_.push_back(std::move(handle));
      stack->reviews_.push_back(static_cast<int64_t>(
          router->shard_service(s)->StagedReviewCount()));
    }
    for (auto& replica : stack->replicas_) replica->StartPuller();
    stack->dataset_ = &dataset;
    return std::unique_ptr<Stack>(std::move(stack));
  }

  ~ReplicatedStack() override {
    for (auto& replica : replicas_) replica->StopPuller();
    primary_ = {};  // the router drops its replica handles
    handles_.clear();
    serving_.clear();
    inners_.clear();
    replicas_.clear();
    source_.reset();
  }

  api::Frontend* frontend() override { return primary_.frontend; }

  // Every trust answer must equal the owning primary shard's snapshot
  // bit for bit, whether the primary or its replica served it.
  Checker MakeChecker(std::atomic<int64_t>*) override {
    api::ShardRouter* router = primary_.router.get();
    std::vector<SnapshotPtr> snapshots;
    for (size_t s = 0; s < kShards; ++s) {
      snapshots.push_back(router->shard_service(s)->Snapshot());
    }
    return [snapshots](const Op& op, const api::Response& response) {
      const size_t shard = op.source % kShards;
      const SnapshotPtr& snapshot = snapshots[shard];
      if (op.kind == kTrust) {
        const auto* result = std::get_if<api::TrustResult>(&response.payload);
        return result != nullptr &&
               result->trust == snapshot->Trust(op.source / kShards,
                                                op.target / kShards);
      }
      const auto* result = std::get_if<api::TopKResult>(&response.payload);
      if (result == nullptr) return false;
      if (op.source % kTopKCheckStride != 0) return true;
      return SameTopK(
          snapshot->TopK(op.source / kShards, kTopKWidth), *result,
          [shard](uint32_t local) {
            return static_cast<uint32_t>(
                wot::GlobalUserOfShard(local, shard, kShards));
          });
    };
  }

  int64_t PickReview(int64_t rater, std::mt19937_64& rng) override {
    const size_t shard = static_cast<size_t>(rater) % kShards;
    const int64_t local =
        static_cast<int64_t>(rng() % static_cast<uint64_t>(reviews_[shard]));
    return local * static_cast<int64_t>(kShards) +
           static_cast<int64_t>(shard);
  }

  wot::telemetry::MetricsSnapshot ScrapeCommitPath() const override {
    wot::telemetry::MetricsSnapshot scrape;
    for (size_t s = 0; s < kShards; ++s) {
      scrape.MergeFrom(
          primary_.router->shard_service(s)->metrics_registry()->Scrape());
      scrape.MergeFrom(primary_.managers[s]->metrics_registry()->Scrape());
    }
    return scrape;
  }

  double IndicesNs() override {
    std::vector<double> per_shard;
    for (size_t s = 0; s < kShards; ++s) {
      const Dataset& staged =
          primary_.router->shard_service(s)->staged_dataset();
      per_shard.push_back(MedianOfRepeats(
          3, [&] { wot::DatasetIndices indices(staged); }));
    }
    // A writer batch dirties one shard; its commit rebuilds that shard's
    // indices only.
    double sum = 0.0;
    for (double ns : per_shard) sum += ns;
    return sum / static_cast<double>(kShards);
  }

  bool durable() const override { return true; }
  wot::DurabilityStats durability() const override {
    wot::DurabilityStats total;
    for (size_t s = 0; s < kShards; ++s) {
      wot::DurabilityStats shard =
          primary_.router->shard_service(s)->durability_stats();
      total.wal_records += shard.wal_records;
      total.wal_bytes += shard.wal_bytes;
    }
    return total;
  }

  // A replica's answer must equal its primary's: the same local request
  // through the replica handle and through the primary shard's frontend
  // must encode to the same bytes.
  void ExtraChecks(const std::vector<Op>& ops, Counts* counts,
                   std::vector<std::string>* notes) override {
    for (auto& replica : replicas_) {
      Status caught = replica->CatchUp();
      if (!caught.ok()) notes->push_back("catch-up: " + caught.ToString());
    }
    int64_t attempted = 0;
    int64_t failed = 0;
    for (const Op& op : OpsOfKind(ops, kTrust, 2000)) {
      const size_t shard = op.source % kShards;
      api::Request local = MakeRequest(
          {kTrust, op.source / static_cast<uint32_t>(kShards),
           op.target / static_cast<uint32_t>(kShards)},
          ++attempted);
      std::optional<api::Response> replica = handles_[shard]->Forward(local);
      api::Response primary = shard_frontends_[shard]->Dispatch(local);
      if (!replica.has_value() ||
          api::EncodeResponseBinary(*replica) !=
              api::EncodeResponseBinary(primary)) {
        ++failed;
      }
    }
    counts->Add(attempted, failed);
    if (failed > 0) {
      notes->push_back("replica answers differing from the primary: " +
                       std::to_string(failed));
    }
  }

  Result<double> AddReadLedger(const std::vector<Op>& ops,
                               const std::string& socket,
                               Report* report) override;

 private:
  ReplicatedStack() = default;

  // Mean per-call time of the router's dispatch minus the dispatch of
  // whichever copy served each call (the replica round-robin share comes
  // from the router's own replica_reads counter).
  struct RoutedTiming {
    double router_ns = 0;
    double replica_frac = 0;
    double below_ns = 0;
  };

  wot::storage::DurableService primary_;
  std::unique_ptr<wot::replication::ReplicationSource> source_;
  std::vector<std::unique_ptr<wot::replication::ReplicaService>> replicas_;
  std::vector<std::unique_ptr<api::ServiceFrontend>> inners_;
  std::vector<std::unique_ptr<wot::replication::ReplicaFrontend>> serving_;
  std::vector<std::shared_ptr<wot::replication::ClientReplicaHandle>>
      handles_;
  std::vector<std::unique_ptr<api::ServiceFrontend>> shard_frontends_;
  std::vector<int64_t> reviews_;
  const Dataset* dataset_ = nullptr;
};

Result<double> ReplicatedStack::AddReadLedger(const std::vector<Op>& ops,
                                              const std::string& socket,
                                              Report* report) {
  api::ShardRouter& router = *primary_.router;
  const std::vector<Op> trust_ops = OpsOfKind(ops, kTrust, 20000);
  const std::vector<Op> topk_ops = OpsOfKind(ops, kTopK, 2000);
  std::vector<SnapshotPtr> snapshots;
  for (size_t s = 0; s < kShards; ++s) {
    snapshots.push_back(router.shard_service(s)->Snapshot());
  }
  // The same ops in each shard's local id space.
  auto localize = [](const std::vector<Op>& global) {
    std::vector<Op> local = global;
    for (Op& op : local) {
      op.source /= static_cast<uint32_t>(kShards);
      op.target /= static_cast<uint32_t>(kShards);
    }
    return local;
  };
  const std::vector<Op> local_trust = localize(trust_ops);
  const std::vector<Op> local_topk = localize(topk_ops);
  double sink = 0.0;
  const double trust_ns = TimePerCall(trust_ops.size(), 5, [&](size_t i) {
    sink += snapshots[trust_ops[i].source % kShards]->Trust(
        local_trust[i].source, local_trust[i].target);
  });
  const double topk_ns = TimePerCall(topk_ops.size(), 3, [&](size_t i) {
    sink += static_cast<double>(
        snapshots[topk_ops[i].source % kShards]
            ->TopK(local_topk[i].source, kTopKWidth)
            .size());
  });
  const std::vector<api::Request> global_requests = RequestsOf(trust_ops);
  const std::vector<api::Request> global_topk = RequestsOf(topk_ops);
  const std::vector<api::Request> local_requests = RequestsOf(local_trust);
  const std::vector<api::Request> local_topk_requests =
      RequestsOf(local_topk);
  const std::vector<api::Request> probe(global_requests.begin(),
                                        global_requests.begin() + 5000);
  const double codec_trust = CodecNs(router, probe);
  const double codec_topk = CodecNs(router, global_topk);

  // Each layer below the router, per call, on the shard that owns it.
  auto per_shard = [&](const std::vector<Op>& global,
                       const std::vector<api::Request>& local,
                       const std::function<int64_t(size_t, const api::Request&)>&
                           call) {
    int64_t check = 0;
    const double ns = TimePerCall(local.size(), 5, [&](size_t i) {
      check += call(global[i].source % kShards, local[i]);
    });
    return check == -1 ? 0.0 : ns;
  };
  const double shard_dispatch = per_shard(
      trust_ops, local_requests, [&](size_t s, const api::Request& r) {
        return shard_frontends_[s]->Dispatch(r).id;
      });
  const double shard_topk = per_shard(
      topk_ops, local_topk_requests, [&](size_t s, const api::Request& r) {
        return shard_frontends_[s]->Dispatch(r).id;
      });
  const double replica_dispatch = per_shard(
      trust_ops, local_requests, [&](size_t s, const api::Request& r) {
        return serving_[s]->Dispatch(r).id;
      });
  const double forward = per_shard(
      trust_ops, local_requests, [&](size_t s, const api::Request& r) {
        std::optional<api::Response> response = handles_[s]->Forward(r);
        return response.has_value() ? response->id : 0;
      });
  const double forward_topk = per_shard(
      topk_ops, local_topk_requests, [&](size_t s, const api::Request& r) {
        std::optional<api::Response> response = handles_[s]->Forward(r);
        return response.has_value() ? response->id : 0;
      });

  // The router over the same calls; the replica share from its counter.
  auto routed = [&](const std::vector<api::Request>& requests,
                    double below_primary, double below_replica) {
    RoutedTiming timing;
    const int64_t reads_before =
        FindCounter(router.ScrapeMetrics(), "router.replica_reads");
    timing.router_ns = DispatchNs(router, requests);
    const int64_t reads =
        FindCounter(router.ScrapeMetrics(), "router.replica_reads") -
        reads_before;
    timing.replica_frac = static_cast<double>(reads) /
                          static_cast<double>(5 * requests.size());
    timing.below_ns = timing.replica_frac * below_replica +
                      (1.0 - timing.replica_frac) * below_primary;
    return timing;
  };
  const auto scrape_before = router.ScrapeMetrics();
  const RoutedTiming trust_routed =
      routed(global_requests, shard_dispatch, forward);
  const RoutedTiming topk_routed = routed(global_topk, shard_topk,
                                          forward_topk);
  const auto scrape_after = router.ScrapeMetrics();
  WOT_ASSIGN_OR_RETURN(double rtt_ns, RoundTripNs(socket, probe));

  const auto trust_n = static_cast<int64_t>(trust_ops.size());
  const auto topk_n = static_cast<int64_t>(topk_ops.size());
  report->Add("service.trust_ns", "ns", trust_ns, trust_n);
  report->Add("service.topk_ns", "ns", topk_ns, topk_n);
  report->Add("api.codec_trust_ns", "ns", codec_trust, 5000);
  report->Add("api.codec_topk_ns", "ns", codec_topk, topk_n);
  report->Add("api.frontend_self_ns", "ns", shard_dispatch - trust_ns,
              trust_n);
  report->Add("router.self_ns", "ns",
              trust_routed.router_ns - trust_routed.below_ns, trust_n);
  report->Add("router.scatter_self_ns", "ns",
              topk_routed.router_ns - topk_routed.below_ns, topk_n);
  int64_t scatters = 0;
  const double width = DeltaMean(scrape_before, scrape_after,
                                 "router.scatter_width", &scatters);
  report->Add("router.scatter_width", "count", width, scatters);
  report->Add("router.replica_read_frac", "ratio", trust_routed.replica_frac,
              trust_n);
  report->Add("replication.forward_self_ns", "ns",
              forward - replica_dispatch, trust_n);
  report->Add("server.rtt_ns", "ns", rtt_ns, 5000);
  report->Add("server.self_ns", "ns",
              rtt_ns - codec_trust - trust_routed.router_ns, 5000);

  // What the sharding layer drops: ratings lost to the user partition,
  // and uniform (not same-shard) pairs it cannot answer.
  wot::ShardSliceStats slice;
  WOT_RETURN_IF_ERROR(
      wot::SliceDatasetByUser(*dataset_, kShards, {}, &slice).status());
  report->Add("router.ratings_dropped_frac", "ratio",
              static_cast<double>(slice.ratings_dropped) /
                  static_cast<double>(dataset_->num_ratings()),
              static_cast<int64_t>(dataset_->num_ratings()));
  std::mt19937_64 rng(trust_ops.size());
  int64_t not_found = 0;
  constexpr int kProbes = 2000;
  for (int i = 0; i < kProbes; ++i) {
    const size_t users = dataset_->num_users();
    api::Response response = router.Dispatch(MakeRequest(
        {kTrust, static_cast<uint32_t>(rng() % users),
         static_cast<uint32_t>(rng() % users)},
        i + 1));
    if (response.status.code == api::ApiCode::kNotFound) ++not_found;
  }
  report->Add("router.cross_shard_not_found_frac", "ratio",
              static_cast<double>(not_found) / kProbes, kProbes);
  if (sink == -1.0) return 0.0;
  return rtt_ns;
}

// ---------------------------------------------------------------------------
// The run: set-up, the server, the reads, the writer, the metrics.

// The shape of a workload's read traffic and its pinned rates.
struct ReadPlan {
  double topk_frac = 0.05;
  size_t stride = 1;
  double fixed_rate = 0.0;
  std::vector<double> ladder;
};

struct WorkloadShape {
  ReadPlan plan;
  bool writer_beside_reads = false;
  /// Whether set-up is a recovered boot (then setup_s is recovery time).
  bool setup_is_recovery = false;
  std::string fsync;
};

// Runs writer batches until `seconds` pass and at least `min_commits`
// committed (capped by the hard run budget).
void RunWriterFor(CommitWriter& writer, double seconds, int64_t min_commits,
                  int64_t run_start_ns) {
  const int64_t end = NowNs() + static_cast<int64_t>(seconds * 1e9);
  const int64_t cap =
      run_start_ns + static_cast<int64_t>(kHardCapSeconds * 1e9);
  while ((NowNs() < end || writer.commits() < min_commits) &&
         NowNs() < cap) {
    writer.Batch();
  }
}

// A writer batch loop on its own thread, beside the reads.
class BackgroundWriter {
 public:
  explicit BackgroundWriter(CommitWriter* writer, int64_t run_start_ns)
      : writer_(writer),
        cap_(run_start_ns + static_cast<int64_t>(kHardCapSeconds * 1e9)),
        thread_([this] {
          while (!stop_.load() && NowNs() < cap_) writer_->Batch();
        }) {}
  ~BackgroundWriter() { Stop(); }
  BackgroundWriter(const BackgroundWriter&) = delete;
  BackgroundWriter& operator=(const BackgroundWriter&) = delete;
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

 private:
  CommitWriter* writer_;
  const int64_t cap_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

Status RunCommon(const BenchConfig& config, const Dataset& dataset,
                 WorkloadShape shape,
                 const std::function<Result<std::unique_ptr<Stack>>(int)>&
                     make_stack,
                 RunOutput* out) {
  const int64_t run_start = NowNs();
  const ReadPlan& plan = shape.plan;
  Report environment;
  const std::vector<Op> ops = MakeOps(config.seed, dataset.num_users(),
                                      plan.topk_frac, plan.stride);
  // rss_mb is what the served stack adds to the process: the harness's
  // own copy of the community and its generated requests are resident
  // from here on, so the peak restarts here and is reported above this.
  if (!ResetPeakRss()) {
    out->notes.push_back("peak RSS reset refused: rss_mb includes the "
                         "harness's earlier peak");
  }
  const double rss_baseline_kb = CurrentRssKb();
  out->notes.push_back("resident before set-up (MB): " +
                       Fmt(rss_baseline_kb / 1024.0));
  std::vector<double> setup;
  std::vector<double> setup_steal;
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    stack.reset();
    const CpuTimes before = ReadCpuTimes();
    const int64_t start = NowNs();
    WOT_ASSIGN_OR_RETURN(stack, make_stack(rep));
    setup.push_back(static_cast<double>(NowNs() - start) / 1e9);
    setup_steal.push_back(StealFrac(before, ReadCpuTimes()));
  }
  std::vector<double> clean_setup;
  for (size_t i : CleanIndices(setup_steal, "host.setups_", &environment)) {
    clean_setup.push_back(setup[i]);
  }
  const double setup_s = Median(clean_setup);
  {
    std::string shown;
    for (double seconds : setup) shown += " " + Fmt(seconds);
    out->notes.push_back("setup runs (s):" + shown);
  }

  ServerHarness harness(stack->frontend(), config.server_threads,
                        "bench-" + std::to_string(::getpid()) + ".sock");
  WOT_RETURN_IF_ERROR(harness.Start());
  std::atomic<int64_t> unchecked{0};
  OpenLoopGenerator generator(
      harness.path(), config.connections,
      WithInjectedFault(stack->MakeChecker(&unchecked),
                        config.inject_fault == "wrong_answer"));
  WOT_RETURN_IF_ERROR(generator.Connect());
  Stack* raw = stack.get();
  wot::DurabilityStats wal;  // summed over the writer's batches
  CommitWriter writer(
      config.seed,
      [raw](int64_t rater, std::mt19937_64& rng) {
        return raw->PickReview(rater, rng);
      },
      // The batch's records sit in the WAL until the commit rotates it.
      [raw, &wal] {
        if (!raw->durable()) return;
        const wot::DurabilityStats stats = raw->durability();
        wal.wal_bytes += stats.wal_bytes;
        wal.wal_records += stats.wal_records;
      },
      [raw](uint64_t version) { raw->OnCommit(version); });
  WOT_RETURN_IF_ERROR(writer.Connect(harness.path()));

  const double s = config.seconds;
  const double rung_seconds =
      plan.ladder.empty()
          ? 0.0
          : std::max(0.25,
                     0.35 * s / static_cast<double>(plan.ladder.size()));
  const int64_t min_commits =
      config.trace ? kMinTracedCommits
                   : (shape.writer_beside_reads ? kMinCommits : 10);
  Counts counts;
  std::vector<Segment> fixed_segments;
  std::vector<Segment> traced_segments;
  int64_t wrong = 0;
  std::vector<Span> spans;  // of the traced segments, kept in memory
  double max_qps = 0.0;
  auto fixed_phase = [&](double seconds, bool trace) {
    const CpuTimes before = ReadCpuTimes();
    PhaseResult phase =
        generator.Run(ops, plan.fixed_rate, seconds, trace);
    Segment segment;
    segment.steal = StealFrac(before, ReadCpuTimes());
    segment.stats.Add(phase);
    counts.Add(static_cast<int64_t>(phase.records.size()), phase.failed());
    wrong += phase.wrong();
    if (trace && spans.size() < kMaxSpans) {
      spans.insert(spans.end(), phase.spans.begin(), phase.spans.end());
    }
    (trace ? traced_segments : fixed_segments).push_back(std::move(segment));
  };

  wot::telemetry::MetricsSnapshot server_before;
  wot::telemetry::MetricsSnapshot server_after;
  const auto commit_before = stack->ScrapeCommitPath();
  const auto api_before = stack->frontend()->ScrapeMetrics();
  const double rss_before = CurrentRssKb();
  {
    std::unique_ptr<BackgroundWriter> beside;
    if (shape.writer_beside_reads) {
      beside = std::make_unique<BackgroundWriter>(&writer, run_start);
    }
    {
      // Warm-up: its answers are checked, its latencies not kept.
      PhaseResult warm_up = generator.Run(ops, plan.fixed_rate, 0.5, false);
      counts.Add(static_cast<int64_t>(warm_up.records.size()),
                 warm_up.failed());
      wrong += warm_up.wrong();
    }
    // The fixed-rate measurement is cut into segments spread over the
    // run (between ladder rungs, or alternating traced and untraced), so
    // a stretch of host noise lands in some windows, not in the metric.
    const double fixed_total =
        (config.trace ? 0.6 : (shape.writer_beside_reads ? 0.5 : 0.35)) * s;
    const double segment = fixed_total / kSegments;
    Ladder ladder(&generator, &ops, plan.ladder, rung_seconds,
                  config.latency_limit_us);
    server_before = harness.Scrape();
    for (int i = 0; i < kSegments; ++i) {
      fixed_phase(segment, config.trace && i % 2 == 1);
      if (!config.trace) ladder.Step(&counts, &out->notes);
    }
    server_after = harness.Scrape();
    while (!config.trace && !ladder.done()) ladder.Step(&counts, &out->notes);
    max_qps = ladder.max_qps();
    // Reads stay beside the writer until it has enough commits.
    const int64_t cap =
        run_start + static_cast<int64_t>(kHardCapSeconds * 1e9);
    while (beside != nullptr && writer.commits() < min_commits &&
           NowNs() < cap) {
      fixed_phase(1.0, false);
    }
  }
  if (!shape.writer_beside_reads) {
    RunWriterFor(writer, (config.trace ? 0.25 : 0.3) * s, min_commits,
                 run_start);
  }
  const auto commit_after = stack->ScrapeCommitPath();
  const auto api_after = stack->frontend()->ScrapeMetrics();
  stack->ExtraChecks(ops, &counts, &out->notes);

  out->attempted = counts.attempted + writer.attempted;
  out->failed = counts.failed + writer.failed;
  out->correct = out->failed == 0;
  if (wrong > 0) {
    out->notes.push_back("WRONG ANSWERS: " + std::to_string(wrong));
  }
  if (!writer.first_error.empty()) {
    out->notes.push_back("writer: " + writer.first_error);
  }
  if (unchecked.load() > 0) {
    out->notes.push_back("answers naming a retired snapshot (unchecked): " +
                         std::to_string(unchecked.load()));
  }

  Report& report = out->report;
  const ReadStats fixed =
      CleanSegments(fixed_segments, "host.fixed_segments_", &environment);
  std::vector<double> commit_ms;
  for (size_t i : CleanIndices(writer.commit_steal, "host.commits_",
                               &environment)) {
    commit_ms.push_back(writer.commit_ms[i]);
  }
  if (!config.trace) {
    report.Add("setup_s", "s", setup_s,
               static_cast<int64_t>(clean_setup.size()));
    report.Add("rss_mb", "MB", PeakRssMb() - rss_baseline_kb / 1024.0, 1);
    const double failed_frac =
        out->attempted > 0 ? static_cast<double>(out->failed) /
                                 static_cast<double>(out->attempted)
                           : 1.0;
    report.Add("ok_frac", "ratio", 1.0 - failed_frac, out->attempted);
    report.Add("failed_frac", "ratio", failed_frac, out->attempted);
    const std::vector<double> trust = Latencies(fixed.trust);
    const std::vector<double> topk = Latencies(fixed.topk);
    const auto trust_n = static_cast<int64_t>(trust.size());
    const auto topk_n = static_cast<int64_t>(topk.size());
    report.Add("trust_p50_us", "us", Median(trust), trust_n);
    report.Add("trust_p90_us", "us", WindowedQuantile(fixed.trust, 0.9),
               trust_n);
    report.Add("trust_p99_us", "us", WindowedQuantile(fixed.trust, 0.99),
               trust_n);
    report.Add("topk_p50_us", "us", Median(topk), topk_n);
    report.Add("topk_p90_us", "us", WindowedQuantile(fixed.topk, 0.9),
               topk_n);
    report.Add("topk_p99_us", "us", WindowedQuantile(fixed.topk, 0.99),
               topk_n);
    // The highest percentile each whole sample supports.
    const double trust_q = HighestSupportedQuantile(trust.size());
    report.Add("trust_top_quantile", "ratio", trust_q, trust_n);
    report.Add("trust_top_us", "us", Quantile(trust, trust_q), trust_n);
    const double topk_q = HighestSupportedQuantile(topk.size());
    report.Add("topk_top_quantile", "ratio", topk_q, topk_n);
    report.Add("topk_top_us", "us", Quantile(topk, topk_q), topk_n);
    if (!plan.ladder.empty()) report.Add("max_qps", "req/s", max_qps, 0);
    const auto commits = static_cast<int64_t>(commit_ms.size());
    report.Add("commit_p50_ms", "ms", Median(commit_ms), commits);
    report.Add("commit_p90_ms", "ms", Quantile(commit_ms, 0.9),
               commits);
    report.Add("loadgen.late_p99_us", "us", Quantile(fixed.late_us, 0.99),
               static_cast<int64_t>(fixed.late_us.size()));
  } else {
    // Load: queue wait and wakeups over the fixed-rate segments (traced
    // and untraced; tracing is client-side), the generator's lateness,
    // and what tracing costs.
    wot::telemetry::HistogramSnapshot wait = HistogramDelta(
        *FindHistogram(server_after, "server.queue_wait_ns"),
        FindHistogram(server_before, "server.queue_wait_ns"));
    report.Add("server.queue_wait_p50_ns", "ns", wait.Quantile(0.5),
               wait.count);
    report.Add("server.queue_wait_p99_ns", "ns", wait.Quantile(0.99),
               wait.count);
    const int64_t wakeups =
        FindCounter(server_after, "server.epoll_wakeups") -
        FindCounter(server_before, "server.epoll_wakeups");
    const int64_t dispatched =
        FindCounter(server_after, "server.requests_dispatched") -
        FindCounter(server_before, "server.requests_dispatched");
    report.Add("server.wakeups_per_request", "ratio",
               dispatched > 0 ? static_cast<double>(wakeups) /
                                    static_cast<double>(dispatched)
                              : 0.0,
               dispatched);
    report.Add("loadgen.late_p99_us", "us", Quantile(fixed.late_us, 0.99),
               static_cast<int64_t>(fixed.late_us.size()));
    report.Add("loadgen.sent", "count", static_cast<double>(fixed.sent),
               fixed.sent);
    const ReadStats traced = CleanSegments(
        traced_segments, "host.traced_segments_", &environment);
    const double base = Median(Latencies(fixed.trust));
    report.Add("trace.overhead_frac", "ratio",
               base > 0 ? (Median(Latencies(traced.trust)) - base) / base
                        : 0.0,
               static_cast<int64_t>(traced.trust.size()));
    // The generator's own spans: its schedule wait, the round trip, and
    // the answer check, per request.
    std::vector<double> span_ns[3];
    for (const Span& span : spans) {
      span_ns[span.name].push_back(
          static_cast<double>(span.end_ns - span.start_ns));
    }
    const char* span_names[3] = {"trace.schedule_p50_ns",
                                 "trace.round_trip_p50_ns",
                                 "trace.check_p50_ns"};
    for (int name = 0; name < 3; ++name) {
      report.Add(span_names[name], "ns", Median(span_ns[name]),
                 static_cast<int64_t>(span_ns[name].size()));
    }
    if (!config.spans_out.empty()) {
      WOT_RETURN_IF_ERROR(WriteSpans(config.spans_out, spans));
    }

    // Read path: each layer's self time, replayed on this run's ops.
    WOT_ASSIGN_OR_RETURN(double attributed,
                         stack->AddReadLedger(ops, harness.path(), &report));
    attributed += report.Find("server.queue_wait_p50_ns")->value;
    const double p50_ns = base * 1e3;
    const auto trust_n = static_cast<int64_t>(fixed.trust.size());
    report.Add("ledger.trust_p50_ns", "ns", p50_ns, trust_n);
    report.Add("ledger.trust_unattributed_ns", "ns", p50_ns - attributed,
               trust_n);
    report.Add("ledger.trust_residual_frac", "ratio",
               p50_ns > 0 ? (p50_ns - attributed) / p50_ns : 0.0, trust_n);

    // Commit path: the service's stage histograms over the writer's
    // batches, indices timed alone, storage when durable.
    const double indices_ns = stack->IndicesNs();
    int64_t commits = 0;
    const double commit_ns =
        DeltaMean(commit_before, commit_after, "service.commit_ns", &commits);
    double stages = indices_ns;
    report.Add("community.indices_ns", "ns", indices_ns, 3);
    report.Add("service.commit_ns", "ns", commit_ns, commits);
    for (const char* stage :
         {"service.commit_update_ns", "service.commit_affiliation_ns",
          "service.commit_postings_ns", "service.commit_publish_ns"}) {
      const double mean =
          DeltaMean(commit_before, commit_after, stage, nullptr);
      report.Add(stage, "ns", mean, commits);
      stages += mean;
    }
    report.Add("service.commit_unattributed_ns", "ns", commit_ns - stages,
               commits);
    const double n =
        std::max<double>(1.0, static_cast<double>(writer.commits()));
    report.Add("service.dirty_categories", "count",
               static_cast<double>(writer.categories_recomputed) / n,
               writer.commits());
    report.Add("service.affiliation_rows", "count",
               static_cast<double>(writer.affiliation_rows) / n,
               writer.commits());
    report.Add("service.postings_rebuilt", "count",
               static_cast<double>(writer.postings_rebuilt) / n,
               writer.commits());
    report.Add("service.rss_per_commit_kb", "KiB",
               (CurrentRssKb() - rss_before) / n, writer.commits());
    const wot::telemetry::HistogramSnapshot* ingest =
        FindHistogram(api_after, "api.latency_ns.ingest_rating");
    if (ingest != nullptr) {
      wot::telemetry::HistogramSnapshot delta = HistogramDelta(
          *ingest, FindHistogram(api_before, "api.latency_ns.ingest_rating"));
      report.Add("api.ingest_p50_ns", "ns", delta.Quantile(0.5), delta.count);
    }
    double storage_on_path = 0.0;
    if (stack->durable()) {
      for (const char* name :
           {"storage.wal_append_ns", "storage.wal_fsync_ns",
            "storage.rotation_ns", "storage.segment_write_ns"}) {
        int64_t count = 0;
        const double mean =
            DeltaMean(commit_before, commit_after, name, &count);
        report.Add(name, "ns", mean, count);
      }
      // Per commit: the commit record's append and sync and the rotation
      // hand-off run on the commit path (records appended at ingest are
      // charged to ingest); segment writes run behind it.
      storage_on_path =
          (report.Find("storage.wal_append_ns")->value *
               static_cast<double>(report.Find("storage.wal_append_ns")
                                       ->samples) /
               (kRatingsPerBatch + 2) / n) +
          report.Find("storage.wal_fsync_ns")->value +
          report.Find("storage.rotation_ns")->value;
      report.Add("storage.wal_bytes_per_record", "B",
                 wal.wal_records > 0
                     ? static_cast<double>(wal.wal_bytes) /
                           static_cast<double>(wal.wal_records)
                     : 0.0,
                 wal.wal_records);
      if (shape.setup_is_recovery) {
        report.Add("storage.recover_ns", "ns", setup_s * 1e9,
                   static_cast<int64_t>(setup.size()));
      }
    }
    const double commit_p50_ns = Median(commit_ms) * 1e6;
    report.Add("ledger.commit_p50_ns", "ns", commit_p50_ns, writer.commits());
    report.Add("ledger.commit_unattributed_ns", "ns",
               commit_p50_ns - commit_ns - storage_on_path, writer.commits());
    report.Add("ledger.commit_residual_frac", "ratio",
               commit_p50_ns > 0
                   ? (commit_p50_ns - commit_ns - storage_on_path) /
                         commit_p50_ns
                   : 0.0,
               writer.commits());
  }

  for (const Metric& metric : environment.metrics()) {
    report.Add(metric.name, metric.unit, metric.value, metric.samples);
  }
  out->config.push_back({"fixed_rate", Fmt(plan.fixed_rate)});
  std::string ladder;
  for (double rate : plan.ladder) {
    ladder += (ladder.empty() ? "" : ",") + Fmt(rate);
  }
  out->config.push_back({"ladder", ladder});
  out->config.push_back({"rung_seconds", Fmt(rung_seconds)});
  out->config.push_back({"topk_frac", Fmt(plan.topk_frac)});
  out->config.push_back({"pair_stride", std::to_string(plan.stride)});
  out->config.push_back({"fsync", shape.fsync});
  out->config.push_back({"setup_repeats", std::to_string(kSetupRepeats)});
  return Status::OK();
}

}  // namespace

Status RunWorkload(const BenchConfig& config, RunOutput* out) {
  WOT_ASSIGN_OR_RETURN(Dataset dataset,
                       LoadCommunity(config.users, config.community_seed,
                                     config.cache_dir));
  const std::string data = "data-" + std::to_string(::getpid());
  WorkloadShape shape;
  Status status;
  if (config.workload == "point_read") {
    shape.plan.topk_frac = 0.05;
    shape.plan.fixed_rate = 10000;
    shape.plan.ladder = {10000, 20000, 25000, 30000, 35000, 40000,
                         45000, 50000, 55000, 60000, 70000, 80000};
    shape.fsync = "none (no storage)";
    status = RunCommon(config, dataset, shape, [&](int) {
      return ServiceStack::InMemory(dataset);
    }, out);
  } else if (config.workload == "replicated_mix") {
    shape.plan.topk_frac = 0.15;
    shape.plan.stride = kShards;
    shape.plan.fixed_rate = 10000;
    shape.plan.ladder = {10000, 20000, 25000, 30000, 35000, 40000,
                         45000, 50000, 55000, 60000, 70000, 80000};
    shape.fsync = "off";
    status = RunCommon(config, dataset, shape, [&](int rep) {
      return ReplicatedStack::Create(data + "/rm-" + std::to_string(rep),
                                     dataset);
    }, out);
  } else if (config.workload == "commit_churn") {
    shape.plan.topk_frac = 0.05;
    // No ladder: the reads stay at one rate well below point_read's
    // max_qps, so they disturb every commit alike.
    shape.plan.fixed_rate = 10000;
    shape.writer_beside_reads = true;
    shape.setup_is_recovery = true;
    shape.fsync = wot::storage::FsyncPolicyName(ServiceStack::kFsync);
    const std::string dir = data + "/cc";
    WOT_RETURN_IF_ERROR(ServiceStack::PrepareDurable(dir, dataset));
    status = RunCommon(config, dataset, shape, [&](int) {
      return ServiceStack::Recover(dir, dataset);
    }, out);
  } else {
    return Status::InvalidArgument("unknown workload '" + config.workload +
                                   "'");
  }
  std::error_code ignored;
  std::filesystem::remove_all(data, ignored);
  return status;
}

}  // namespace perfbench
