// End-to-end telemetry acceptance (label: integration): spawn the REAL
// wot_served binary, push a mixed workload through its stdin, then
// scrape it with a `metrics` request over the same connection and
// assert the scrape is live — non-zero per-method latency histograms
// with sane quantile ordering, commit stage timings, queue-wait and
// connection counters from the event loop — at 1 shard, at 4 shards
// (fan-out metrics included), and durably (WAL append/fsync timings).
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "wot/api/api.h"
#include "wot/api/codec.h"
#include "wot/util/string_util.h"

namespace wot {
namespace api {
namespace {

const char* ServedBinary() {
  const char* bin = std::getenv("WOT_SERVED_BIN");
  return (bin != nullptr && bin[0] != '\0') ? bin : nullptr;
}

// A mixed workload: queries on every method class, ingests, a commit,
// then one final `metrics` scrape as the last frame.
std::vector<std::string> BuildWorkload() {
  std::vector<std::string> lines;
  int64_t id = 0;
  auto add = [&](RequestPayload payload) {
    Request request;
    request.id = ++id;
    request.payload = std::move(payload);
    lines.push_back(EncodeRequest(request));
  };
  // User ids are multiples of 4, so every pair shares a shard under the
  // round-robin partition at --shards 1 AND 4 (pair queries across
  // shards are structured NOT_FOUNDs, which would pollute api.errors).
  for (int round = 0; round < 40; ++round) {
    size_t i = static_cast<size_t>(round * 28) % 80;
    size_t j = static_cast<size_t>(round * 52 + 4) % 80;
    add(TrustQuery{std::to_string(i), std::to_string(j)});
    add(TopKQuery{std::to_string(j), 1 + round % 8});
    add(ExplainQuery{std::to_string(i), std::to_string(j)});
  }
  add(IngestUser{"metrics/extra"});
  add(CommitRequest{});
  add(StatsRequest{});
  add(MetricsRequest{});
  return lines;
}

struct ServedRun {
  std::vector<std::string> responses;
  std::string stderr_log;
  int exit_code = -1;
};

// RunServed from served_roundtrip_test.cc, with caller-chosen extra
// argv entries (shards, data_dir, ...).
ServedRun RunServed(const std::vector<std::string>& lines,
                    const std::vector<std::string>& extra_args) {
  ServedRun run;
  std::string stderr_path =
      ::testing::TempDir() + "/wot_served_metrics_stderr.log";

  int in_pipe[2];
  int out_pipe[2];
  if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) {
    ADD_FAILURE() << "pipe() failed";
    return run;
  }
  pid_t pid = fork();
  if (pid < 0) {
    ADD_FAILURE() << "fork() failed";
    return run;
  }
  if (pid == 0) {
    dup2(in_pipe[0], STDIN_FILENO);
    dup2(out_pipe[1], STDOUT_FILENO);
    int err_fd =
        open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err_fd >= 0) dup2(err_fd, STDERR_FILENO);
    close(in_pipe[0]);
    close(in_pipe[1]);
    close(out_pipe[0]);
    close(out_pipe[1]);
    std::vector<const char*> argv = {ServedBinary(), "--users", "80",
                                     "--seed", "123", "--threads", "1"};
    for (const std::string& arg : extra_args) {
      argv.push_back(arg.c_str());
    }
    argv.push_back(nullptr);
    execv(ServedBinary(), const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);

  std::thread writer([&lines, fd = in_pipe[1]] {
    for (const std::string& line : lines) {
      std::string frame = line + "\n";
      size_t written = 0;
      while (written < frame.size()) {
        ssize_t n = ::write(fd, frame.data() + written,
                            frame.size() - written);
        if (n < 0) {
          if (errno == EINTR) continue;
          break;
        }
        written += static_cast<size_t>(n);
      }
    }
    close(fd);
  });

  std::string output;
  char chunk[1 << 16];
  while (true) {
    ssize_t n = ::read(out_pipe[0], chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    output.append(chunk, static_cast<size_t>(n));
  }
  writer.join();
  close(out_pipe[0]);

  int wait_status = 0;
  waitpid(pid, &wait_status, 0);
  run.exit_code = WIFEXITED(wait_status) ? WEXITSTATUS(wait_status) : -1;

  for (std::string_view line : Split(output, '\n')) {
    if (!line.empty()) run.responses.emplace_back(line);
  }
  std::ifstream err(stderr_path);
  std::stringstream err_text;
  err_text << err.rdbuf();
  run.stderr_log = err_text.str();
  return run;
}

// Runs the workload, decodes the trailing metrics frame, and applies
// the shared liveness assertions every serving mode must satisfy.
MetricsResult ScrapeAfterWorkload(
    const std::vector<std::string>& extra_args) {
  std::vector<std::string> workload = BuildWorkload();
  ServedRun run = RunServed(workload, extra_args);
  EXPECT_EQ(run.exit_code, 0) << run.stderr_log;
  EXPECT_EQ(run.responses.size(), workload.size()) << run.stderr_log;
  MetricsResult metrics;
  if (run.responses.size() != workload.size()) return metrics;

  Response response;
  EXPECT_TRUE(DecodeResponse(run.responses.back(), &response).ok())
      << run.responses.back();
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  if (!std::holds_alternative<MetricsResult>(response.payload)) {
    ADD_FAILURE() << "last frame is not a metrics result: "
                  << run.responses.back();
    return metrics;
  }
  metrics = std::get<MetricsResult>(response.payload);

  auto histogram =
      [&](const std::string& name) -> const MetricHistogramValue* {
    for (const MetricHistogramValue& h : metrics.histograms) {
      if (h.name == name) return &h;
    }
    return nullptr;
  };

  // Per-method latency: every method the workload exercised has a
  // non-zero histogram with sanely ordered quantiles.
  for (const char* method : {"trust", "topk", "explain", "ingest_user",
                             "commit", "stats"}) {
    const MetricHistogramValue* h =
        histogram(std::string("api.latency_ns.") + method);
    if (h == nullptr) {
      ADD_FAILURE() << "api.latency_ns." << method << " missing";
      continue;
    }
    EXPECT_GT(h->count, 0) << method;
    EXPECT_GT(h->sum, 0) << method;
    EXPECT_GT(h->p50, 0.0) << method;
    EXPECT_LE(h->p50, h->p90) << method;
    EXPECT_LE(h->p90, h->p99) << method;
    EXPECT_LE(h->p99, h->p999) << method;
  }

  // Commit stage timings, recorded by the service(s) that committed.
  for (const char* stage :
       {"service.commit_ns", "service.commit_update_ns",
        "service.commit_publish_ns"}) {
    const MetricHistogramValue* h = histogram(stage);
    if (h == nullptr) {
      ADD_FAILURE() << stage << " missing";
      continue;
    }
    EXPECT_GT(h->count, 0) << stage;
  }

  // Event-loop metrics: the stdio connection dispatched every frame. The
  // reads ran on the loop thread; only the other four (ingest_user,
  // commit, stats, metrics) waited in the worker queue.
  const MetricHistogramValue* queue_wait =
      histogram("server.queue_wait_ns");
  if (queue_wait == nullptr) {
    ADD_FAILURE() << "server.queue_wait_ns missing";
  } else {
    EXPECT_EQ(queue_wait->count, 4);
  }
  auto counter = [&](const std::string& name) -> int64_t {
    for (const MetricValue& c : metrics.counters) {
      if (c.name == name) return c.value;
    }
    return -1;
  };
  EXPECT_EQ(counter("server.requests_dispatched"),
            static_cast<int64_t>(workload.size()));
  EXPECT_GE(counter("server.epoll_wakeups"), 1);
  EXPECT_EQ(counter("api.errors"), 0);

  // The scrape is attributable: one commit after the boot snapshot.
  EXPECT_EQ(metrics.snapshot_version, 2u);
  return metrics;
}

TEST(ServedMetricsTest, SingleShardScrapeIsLive) {
  ASSERT_NE(ServedBinary(), nullptr)
      << "WOT_SERVED_BIN not set; run through ctest";
  ScrapeAfterWorkload({});
}

TEST(ServedMetricsTest, FourShardScrapeIncludesFanOut) {
  ASSERT_NE(ServedBinary(), nullptr)
      << "WOT_SERVED_BIN not set; run through ctest";
  MetricsResult metrics = ScrapeAfterWorkload({"--shards", "4"});

  const MetricHistogramValue* fanout = nullptr;
  const MetricHistogramValue* scatter = nullptr;
  for (const MetricHistogramValue& h : metrics.histograms) {
    if (h.name == "router.fanout_latency_ns") fanout = &h;
    if (h.name == "router.scatter_width") scatter = &h;
  }
  ASSERT_NE(fanout, nullptr) << "router.fanout_latency_ns missing";
  EXPECT_GT(fanout->count, 0);
  ASSERT_NE(scatter, nullptr) << "router.scatter_width missing";
  EXPECT_GT(scatter->count, 0);
  // Scatter width is bounded by the shard count.
  EXPECT_LE(scatter->max, 4);
}

TEST(ServedMetricsTest, DurableScrapeIncludesWalTimings) {
  ASSERT_NE(ServedBinary(), nullptr)
      << "WOT_SERVED_BIN not set; run through ctest";
  // A FRESH directory each run — reusing one would replay the previous
  // run's WAL and shift the commit epoch the test asserts on.
  std::string dir_template =
      ::testing::TempDir() + "/wot_served_metrics_data.XXXXXX";
  std::vector<char> buffer(dir_template.begin(), dir_template.end());
  buffer.push_back('\0');
  ASSERT_NE(mkdtemp(buffer.data()), nullptr);
  std::string data_dir = buffer.data();
  MetricsResult metrics = ScrapeAfterWorkload(
      {"--data_dir", data_dir, "--fsync", "off"});

  bool saw_append = false;
  for (const MetricHistogramValue& h : metrics.histograms) {
    if (h.name == "storage.wal_append_ns") {
      saw_append = true;
      // Every ingest and the commit marker hit the WAL.
      EXPECT_GT(h.count, 0);
      EXPECT_LE(h.p50, h.p99);
    }
  }
  EXPECT_TRUE(saw_append) << "storage.wal_append_ns missing";
}

}  // namespace
}  // namespace api
}  // namespace wot
