// The serving benchmark's three workloads and their per-layer ledgers.
//
//   point_read      one ServiceFrontend, no storage; 95% trust / 5% topk
//                   on uniform pairs, open-loop, then a rate ladder.
//   replicated_mix  a durable 4-shard ShardRouter with one in-process
//                   replica per shard; 85% trust / 15% topk on same-shard
//                   pairs, open-loop, then a rate ladder.
//   commit_churn    one durable TrustService; one writer connection runs
//                   closed-loop ingest+commit batches while a fixed-rate
//                   read mix runs beside it.
//
// Every workload boots its stack in process, serves it over a unix-socket
// ConnectionServer, and drives it over the v2 binary wire. An untraced
// run (trace = false) yields the end-to-end metrics; a traced run yields
// the per-layer ledger, timed from outside through each layer's public
// functions on the workload's own generated requests.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "wot/util/status.h"

namespace perfbench {

struct BenchConfig {
  std::string workload;
  uint64_t seed = 1;           ///< traffic seed (ops, pairs, ratings)
  double seconds = 20.0;       ///< measured time of one run
  bool trace = false;
  size_t users = 20000;
  /// Generator seed of the community: fixed, so every traffic seed runs
  /// against the same community.
  uint64_t community_seed = 42;
  double latency_limit_us = 1000.0;
  int connections = 3;         ///< reader connections (+1 writer)
  int server_threads = 4;      ///< the ConnectionServer default
  std::string cache_dir;       ///< community cache ("" = regenerate)
  std::string work_dir = ".";  ///< sockets and data directories
  std::string spans_out;       ///< traced runs: where spans go ("" = none)
  /// "wrong_answer": corrupt one received trust answer before it is
  /// checked, to prove the correctness check trips.
  std::string inject_fault;
};

struct RunOutput {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// End-to-end metrics (untraced) or the per-layer ledger (traced).
  Report report;
  /// Workload-specific settings pinned into the result record.
  std::vector<std::pair<std::string, std::string>> config;
  std::vector<std::string> notes;
};

wot::Status RunWorkload(const BenchConfig& config, RunOutput* out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
