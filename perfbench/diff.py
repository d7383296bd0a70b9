#!/usr/bin/env python3
"""Compares two sets of serving-benchmark result records. Reports only.

    python3 perfbench/diff.py BASE_DIR NEW_DIR

Each directory holds result records as run.py saves them (one JSON file
per run). Records are grouped by workload, trace mode and config key; a
group is compared only when both sides ran the same config (users, seeds
of the community, rates, ladder, fsync policy, build type, hardware
threads, benchmark code ...). A group whose config exists on one side
only is listed as NOT COMPARED with the fields that differ, never
compared silently.

For every metric of a compared group it prints each side's median and
quartiles over its runs and the change of the medians. A metric is
"unresolved" when either side's spread (quartile distance over median)
exceeds the metric's bound, or when the two quartile ranges overlap by
more than the bound (as a share of the base median); otherwise the
change is "better", "worse", or "within bound". Bounds come from
BENCHMARK.json's end_to_end list; per-layer metrics, which have none,
use PER_LAYER_BOUND. The tool gates nothing and always exits 0 once it
has read both sides.
"""

import argparse
import glob
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                         "BENCHMARK.json")
PER_LAYER_BOUND = 0.1


def load(directory):
    groups = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as handle:
            try:
                record = json.load(handle)
            except json.JSONDecodeError:
                continue
        if "config" not in record or "metrics" not in record:
            continue
        key = (record["workload"], record["trace"],
               record["config"].get("config_key", "?"))
        groups.setdefault(key, []).append(record)
    return groups


def summary(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return median, q1, q3


def verdict(base, new, bound, higher_is_better):
    b_med, b_q1, b_q3 = base
    n_med, n_q1, n_q3 = new
    if b_med == 0:
        return "unresolved", float("nan")
    change = (n_med - b_med) / abs(b_med)
    spread_b = (b_q3 - b_q1) / abs(b_med)
    spread_n = (n_q3 - n_q1) / abs(n_med) if n_med else float("inf")
    overlap = max(0.0, min(b_q3, n_q3) - max(b_q1, n_q1)) / abs(b_med)
    if spread_b > bound or spread_n > bound or overlap > bound:
        return "unresolved", change
    if abs(change) <= bound:
        return "within bound", change
    improved = change > 0 if higher_is_better else change < 0
    return ("better" if improved else "worse"), change


def config_difference(records_a, records_b):
    a = records_a[0]["config"]
    b = records_b[0]["config"]
    return sorted(k for k in set(a) | set(b)
                  if k not in ("seed", "git_sha", "source_digest",
                               "config_key") and a.get(k) != b.get(k))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args()

    with open(BENCHMARK) as handle:
        spec = json.load(handle)
    bounds, higher = {}, set()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        if "bound" in metric:
            bounds[metric["name"]] = metric["bound"]
        if metric["better"] == "higher":
            higher.add(metric["name"])

    base, new = load(args.base), load(args.new)
    if not base or not new:
        print("diff.py: no result records on one side", file=sys.stderr)
        return 2
    for key in sorted(set(base) | set(new)):
        workload, trace, config_key = key
        title = f"{workload} trace={trace} config={config_key}"
        if key not in base or key not in new:
            side = "base" if key in base else "new"
            others = [k for k in (new if side == "base" else base)
                      if k[0] == workload and k[1] == trace]
            print(f"NOT COMPARED {title}: only in {side}")
            for other in others:
                mine = (base if side == "base" else new)[key]
                theirs = (new if side == "base" else base)[other]
                print("  config differs from", other[2], "in:",
                      ", ".join(config_difference(mine, theirs)))
            continue
        runs_b, runs_n = base[key], new[key]
        print(f"{title}  runs: base={len(runs_b)} new={len(runs_n)}")
        print(f"  {'metric':34s} {'base median [q1, q3]':>34s} "
              f"{'new median [q1, q3]':>34s} {'change':>8s}  verdict")
        names = []
        for record in runs_b + runs_n:
            for metric in record["metrics"]:
                if metric["name"] not in names:
                    names.append(metric["name"])
        for name in names:
            values_b = [m["value"] for r in runs_b for m in r["metrics"]
                        if m["name"] == name and m["value"] is not None]
            values_n = [m["value"] for r in runs_n for m in r["metrics"]
                        if m["name"] == name and m["value"] is not None]
            if not values_b or not values_n:
                print(f"  {name:34s} missing on one side")
                continue
            sb, sn = summary(values_b), summary(values_n)
            result, change = verdict(sb, sn,
                                     bounds.get(name, PER_LAYER_BOUND),
                                     name in higher)
            print(f"  {name:34s} {sb[0]:12.5g} [{sb[1]:9.4g}, {sb[2]:9.4g}] "
                  f"{sn[0]:12.5g} [{sn[1]:9.4g}, {sn[2]:9.4g}] "
                  f"{change:+8.1%}  {result}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
