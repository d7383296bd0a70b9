#!/usr/bin/env python3
"""Runs one workload of the serving benchmark and prints its result.

    python3 perfbench/run.py --workload point_read --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles the wot library from ../src) in Release
under .bench_build/; later runs reuse the build. The run's full result
record (pinned config, every metric with its unit and sample count, notes)
is saved under .bench_build/results/ and printed as a table; the last line
of standard output is the benchmark's result line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 it holds the end-to-end metrics BENCHMARK.json names, with
--trace 1 the per-layer ones. Exits non-zero without a result line when
the program cannot be built or the run cannot complete.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("point_read", "replicated_mix", "commit_churn")
RUN_TIMEOUT_S = 175
# Fields of the result record that must match before two records are
# compared (see diff.py). The seed is left out on purpose: runs with
# different seeds are the repetitions a comparison is made of.
CONFIG_KEY_FIELDS = (
    "users", "community_seed", "run_seconds", "hardware_threads",
    "build_type", "latency_limit_us", "connections", "server_threads",
    "setup_repeats", "fixed_rate", "ladder", "rung_seconds", "topk_frac",
    "pair_stride", "fsync", "bench_digest")


def log(message):
    print(message, file=sys.stderr, flush=True)


def digest(paths):
    """sha256 over the contents of every file under `paths`, in name order."""
    hasher = hashlib.sha256()
    for root in paths:
        if os.path.isfile(root):
            files = [root]
        else:
            files = []
            for directory, subdirs, names in os.walk(root):
                subdirs.sort()
                files.extend(os.path.join(directory, n) for n in sorted(names))
        for path in files:
            hasher.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                hasher.update(handle.read())
    return hasher.hexdigest()[:16]


def git_sha(root):
    # Never look above the checkout: outside git there is no sha.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(root, build_dir):
    """Configures (once) and builds serving_bench; returns its path."""
    binary = os.path.join(build_dir, "serving_bench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, cwd=root, stdout=sys.stderr).returncode:
            return None
    jobs = str(max(1, os.cpu_count() or 1))
    result = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "serving_bench",
         "--parallel", jobs], cwd=root, stdout=sys.stderr)
    if result.returncode != 0 or not os.path.exists(binary):
        return None
    return binary


def contract_metrics(root, trace):
    """The metric names BENCHMARK.json asks for in this mode (None = all)."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def print_table(record):
    print(f"# {record['workload']} trace={record['trace']} "
          f"correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}")
    print("# config: " + ", ".join(
        f"{k}={v}" for k, v in sorted(record["config"].items())))
    for metric in record["metrics"]:
        value = metric["value"]
        shown = "null" if value is None else f"{value:.6g}"
        print(f"{metric['name']:34s} {shown:>14s} {metric['unit']:6s} "
              f"samples={metric['samples']}")
    for note in record["notes"]:
        print(f"# note: {note}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--users", type=int, default=20000)
    parser.add_argument("--latency-limit-us", type=float, default=1000,
                        help="trust p99 limit of a passing ladder rung")
    parser.add_argument("--results", default=None,
                        help="where result records are saved")
    parser.add_argument("--inject-fault", default="",
                        help="wrong_answer: prove the correctness check")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("run.py: the wot sources (src/) are not next to perfbench/")
        return 2
    base = os.path.join(root, ".bench_build")
    build_dir = os.path.join(base, "perfbench-release")
    started = time.time()
    binary = build(root, build_dir)
    if binary is None:
        log("run.py: build failed")
        return 2
    log(f"run.py: build ready in {time.time() - started:.1f} s")

    work_dir = os.path.join(base, "run")
    command = [
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--users", str(args.users),
        "--latency_limit_us", str(args.latency_limit_us),
        "--cache_dir", os.path.join(base, "inputs"),
        "--work_dir", work_dir]
    results = args.results or os.path.join(base, "results")
    os.makedirs(results, exist_ok=True)
    name = (f"{args.workload}-trace{args.trace}-seed{args.seed}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    if args.trace:
        command += ["--spans_out",
                    os.path.abspath(os.path.join(results, name + ".spans.csv"))]
    if args.inject_fault:
        command += ["--inject_fault", args.inject_fault]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: the run exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        log(f"run.py: serving_bench exited with {run.returncode}")
        return 1
    record = json.loads(lines[-1])

    config = record["config"]
    config["bench_digest"] = digest([os.path.join(HERE, "src"),
                                     os.path.join(HERE, "CMakeLists.txt")])
    config["source_digest"] = digest([
        os.path.join(HERE, "..", "src"),
        os.path.join(HERE, "..", "bench", "bench_util.h"),
        os.path.join(HERE, "..", "bench", "bench_util.cc")])
    config["git_sha"] = git_sha(root)
    config["config_key"] = hashlib.sha256(json.dumps(
        [config.get(k) for k in CONFIG_KEY_FIELDS]).encode()).hexdigest()[:16]

    with open(os.path.join(results, name + ".json"), "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print_table(record)

    by_name = {m["name"]: m for m in record["metrics"]}
    wanted = contract_metrics(root, args.trace)
    if wanted is None:
        wanted = list(by_name)
    missing = [n for n in wanted if n not in by_name]
    if missing:
        log("run.py: the run did not report " + ", ".join(missing))
        return 1
    if not record["correct"]:
        log("run.py: CORRECTNESS CHECK FAILED (see notes above)")
    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {n: {"value": by_name[n]["value"],
                        "unit": by_name[n]["unit"]} for n in wanted},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
