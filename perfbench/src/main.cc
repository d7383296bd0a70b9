// serving_bench: one run of one workload of the serving benchmark.
//
//   serving_bench --workload point_read --seed 7 --seconds 20 --trace 0
//
// Boots the stack in process, drives it over the unix-socket server,
// checks every answer it can, and prints the run's result record (config,
// correctness counts, metrics with units and sample counts) as one JSON
// line on stdout. perfbench/run.py builds this binary and turns the
// record into the benchmark's result line.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "stats.h"
#include "workloads.h"
#include "wot/util/flags.h"
#include "wot/util/logging.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string RecordJson(const BenchConfig& config, const RunOutput& out) {
  std::string json = "{\"workload\": ";
  AppendJsonString(&json, config.workload);
  json += ", \"trace\": ";
  json += config.trace ? "1" : "0";
  json += ", \"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"config\": {";
  std::vector<std::pair<std::string, std::string>> fields = {
      {"users", std::to_string(config.users)},
      {"community_seed", std::to_string(config.community_seed)},
      {"seed", std::to_string(config.seed)},
      {"run_seconds", std::to_string(config.seconds)},
      {"hardware_threads",
       std::to_string(std::thread::hardware_concurrency())},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"latency_limit_us", std::to_string(config.latency_limit_us)},
      {"connections", std::to_string(config.connections)},
      {"server_threads", std::to_string(config.server_threads)},
  };
  fields.insert(fields.end(), out.config.begin(), out.config.end());
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) json += ", ";
    AppendJsonString(&json, fields[i].first);
    json += ": ";
    AppendJsonString(&json, fields[i].second);
  }
  json += "}, \"metrics\": [";
  const std::vector<Metric>& metrics = out.report.metrics();
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "{\"name\": ";
    AppendJsonString(&json, metrics[i].name);
    json += ", \"unit\": ";
    AppendJsonString(&json, metrics[i].unit);
    json += ", \"value\": ";
    AppendJsonNumber(&json, metrics[i].value);
    json += ", \"samples\": " + std::to_string(metrics[i].samples) + "}";
  }
  json += "], \"notes\": [";
  for (size_t i = 0; i < out.notes.size(); ++i) {
    if (i > 0) json += ", ";
    AppendJsonString(&json, out.notes[i]);
  }
  json += "]}";
  return json;
}

int Main(int argc, char** argv) {
  BenchConfig config;
  int64_t seed = 1;
  int64_t trace = 0;
  int64_t users = static_cast<int64_t>(config.users);
  wot::FlagParser flags("serving_bench",
                        "one run of one serving-benchmark workload");
  flags.AddString("workload", &config.workload,
                  "point_read | replicated_mix | commit_churn");
  flags.AddInt64("seed", &seed, "traffic seed");
  flags.AddDouble("seconds", &config.seconds, "measured seconds");
  flags.AddInt64("trace", &trace, "1 = the traced per-layer run");
  flags.AddInt64("users", &users, "community size");
  flags.AddDouble("latency_limit_us", &config.latency_limit_us,
                  "trust p99 limit of a passing ladder rung");
  flags.AddString("cache_dir", &config.cache_dir,
                  "where the generated community is cached");
  flags.AddString("work_dir", &config.work_dir,
                  "directory for the socket and data directories");
  flags.AddString("spans_out", &config.spans_out,
                  "traced runs: write the generator's spans here (CSV)");
  flags.AddString("inject_fault", &config.inject_fault,
                  "wrong_answer: corrupt one answer (self-test)");
  wot::Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  config.seed = static_cast<uint64_t>(seed);
  config.trace = trace != 0;
  config.users = static_cast<size_t>(users);
  wot::SetLogThreshold(wot::LogLevel::kWarning);

  std::error_code error;
  std::filesystem::create_directories(config.work_dir, error);
  if (error || ::chdir(config.work_dir.c_str()) != 0) {
    std::fprintf(stderr, "cannot enter work dir %s\n",
                 config.work_dir.c_str());
    return 2;
  }
  RunOutput out;
  wot::Status status = RunWorkload(config, &out);
  if (!status.ok()) {
    std::fprintf(stderr, "serving_bench: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%s\n", RecordJson(config, out).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
