#!/usr/bin/env python3
"""Self-test of the serving benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

It checks, at a tiny scale (400 users, 3-second runs):
  1. every workload, untraced and traced, exits 0 and prints a result
     line holding exactly the metrics BENCHMARK.json names for that mode,
     each a finite number, with correct = true and failed = 0; the saved
     record also carries the workload's full per-layer ledger;
  2. a seeded wrong answer (--inject-fault wrong_answer) trips the
     correctness check on every workload: correct = false, failed >= 1;
  3. diff.py compares two result sets of one config and refuses, loudly,
     to compare records whose configs differ;
  4. in a directory holding only BENCHMARK.json and perfbench/, run.py
     exits non-zero without printing a result line.
Exits 0 when all hold; prints each failure otherwise.
"""

import glob
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("point_read", "replicated_mix", "commit_churn")
TINY = ["--users", "400", "--seconds", "3"]
SCRATCH = os.path.join(".bench_build", "selftest")

# The ledger each workload's traced record must carry beyond the
# BENCHMARK.json per-layer list: the layers only that workload has.
EXTRA_LEDGER = {
    "point_read": ["server.rtt_ns", "ledger.trust_residual_frac",
                   "ledger.commit_residual_frac", "loadgen.sent"],
    "replicated_mix": [
        "router.self_ns", "router.scatter_self_ns", "router.scatter_width",
        "router.replica_read_frac", "router.ratings_dropped_frac",
        "router.cross_shard_not_found_frac", "replication.forward_self_ns",
        "storage.wal_append_ns", "storage.wal_fsync_ns",
        "storage.segment_write_ns", "storage.wal_bytes_per_record"],
    "commit_churn": [
        "storage.wal_append_ns", "storage.wal_fsync_ns",
        "storage.segment_write_ns", "storage.wal_bytes_per_record",
        "storage.recover_ns", "ledger.commit_residual_frac"],
}

failures = []


def check(condition, what):
    if not condition:
        failures.append(what)
        print("FAIL:", what, flush=True)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_line(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    named = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}
    shutil.rmtree(SCRATCH, ignore_errors=True)
    results_a = os.path.join(SCRATCH, "a")

    # 1. Every workload emits every named metric, untraced and traced.
    for workload in WORKLOADS:
        for trace in (0, 1):
            tag = f"{workload} trace={trace}"
            done = run(["--workload", workload, "--seed", "3", "--trace",
                        str(trace), "--results", results_a] + TINY)
            result = result_line(done.stdout)
            check(done.returncode == 0 and result is not None,
                  f"{tag}: exit {done.returncode}, no result line\n"
                  f"{done.stderr[-2000:]}")
            if result is None:
                continue
            check(result["correct"] and result["failed"] == 0,
                  f"{tag}: correct={result['correct']} "
                  f"failed={result['failed']}")
            check(result["attempted"] >= 1, f"{tag}: nothing attempted")
            check(sorted(result["metrics"]) == sorted(named[trace]),
                  f"{tag}: metrics {sorted(result['metrics'])}")
            for name, metric in result["metrics"].items():
                value = metric["value"]
                check(isinstance(value, (int, float)) and
                      math.isfinite(value), f"{tag}: {name} = {value}")
            if trace == 1:
                records = glob.glob(os.path.join(
                    results_a, f"{workload}-trace1-*.json"))
                with open(sorted(records)[-1]) as handle:
                    record = json.load(handle)
                have = {m["name"] for m in record["metrics"]}
                for name in EXTRA_LEDGER[workload]:
                    check(name in have, f"{tag}: record lacks {name}")

    # 2. A seeded wrong answer fails the run.
    for workload in WORKLOADS:
        done = run(["--workload", workload, "--seed", "5", "--trace", "0",
                    "--inject-fault", "wrong_answer", "--results",
                    os.path.join(SCRATCH, "fault")] + TINY)
        result = result_line(done.stdout)
        check(result is not None and not result["correct"] and
              result["failed"] >= 1,
              f"{workload}: the injected wrong answer was not caught")

    # 3. diff.py: same config compares, a different config is refused.
    results_b = os.path.join(SCRATCH, "b")
    shutil.copytree(results_a, results_b)
    diff = subprocess.run(
        [sys.executable, "perfbench/diff.py", results_a, results_b],
        cwd=ROOT, capture_output=True, text=True)
    check(diff.returncode == 0 and "within bound" in diff.stdout and
          "NOT COMPARED" not in diff.stdout,
          f"diff of identical sets:\n{diff.stdout[-2000:]}")
    for path in glob.glob(os.path.join(results_b, "point_read-trace0-*")):
        with open(path) as handle:
            record = json.load(handle)
        record["config"]["users"] = "401"
        record["config"]["config_key"] = "changed"
        with open(path, "w") as handle:
            json.dump(record, handle)
    diff = subprocess.run(
        [sys.executable, "perfbench/diff.py", results_a, results_b],
        cwd=ROOT, capture_output=True, text=True)
    check("NOT COMPARED point_read trace=0" in diff.stdout and
          "users" in diff.stdout,
          f"diff across configs was not refused:\n{diff.stdout[-2000:]}")

    # 4. Without the program's sources there is no result.
    bare = os.path.join(SCRATCH, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(["--workload", "point_read", "--seed", "1", "--seconds", "1",
                "--trace", "0"], cwd=bare)
    check(done.returncode != 0 and result_line(done.stdout) is None,
          f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")

    shutil.rmtree(SCRATCH, ignore_errors=True)
    print("selftest:", "FAILED" if failures else "passed",
          f"({len(failures)} failures)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
