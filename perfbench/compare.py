#!/usr/bin/env python3
"""Compares two sets of benchmark runs, per workload and metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds one file per run: the stdout of perfbench/run.py (one
JSON line per metric; a file may hold several workloads). Runs are paired
in file-name order, so name them in the order they ran and alternate which
side runs first. For every (workload, metric) both sides report, prints each
side's median and quartiles, the change of the median, and the fraction of
pairs the new side won (ties count for neither). End-to-end metrics get a
verdict against their BENCHMARK.json bound:

  gain        the new side won >= 90% of the pairs and its median moved by
              more than the base side's own quartile spread
  regression  the new median is worse than the base median by more than
              the bound
  unresolved  neither, but one side's quartile spread (as a share of its
              median) is wider than the bound and not every new run beats
              every base run
  flat        otherwise

Exits 1 if any metric regressed.
"""

import argparse
import collections
import json
import os
import statistics
import sys


def load_runs(directory):
    """[{(workload, metric): value}] in file-name order."""
    runs = []
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        values = {}
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                row = json.loads(line)
                if "metric" in row:
                    values[(row["workload"], row["metric"])] = row["value"]
        if values:
            runs.append(values)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound):
    lower = better == "lower"
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if (n < b if lower else n > b))
    win_share = wins / len(pairs) if pairs else 0.0
    worse = ((nm - bm) if lower else (bm - nm)) / bm if bm else 0.0
    if bound is None:
        return win_share, worse, "-"
    improved = worse < 0
    if win_share >= 0.9 and improved and abs(nm - bm) > (b3 - b1):
        return win_share, worse, "gain"
    if worse > bound:
        return win_share, worse, "regression"
    spread = max((b3 - b1) / bm if bm else 0.0, (n3 - n1) / nm if nm else 0.0)
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if spread > bound and not all_better:
        return win_share, worse, "unresolved"
    return win_share, worse, "flat"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(here, "..", "BENCHMARK.json"))
    args = parser.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    direction = {}
    bound = {}
    for m in spec["end_to_end"]:
        direction[m["name"]] = m["better"]
        bound[m["name"]] = m["bound"]
    for m in spec["per_layer"]:
        direction[m["name"]] = m["better"]

    base_runs = load_runs(args.base)
    new_runs = load_runs(args.new)
    if not base_runs or not new_runs:
        print("no runs found", file=sys.stderr)
        return 2
    series = collections.defaultdict(lambda: ([], []))
    for side, runs in ((0, base_runs), (1, new_runs)):
        for run in runs:
            for key, value in run.items():
                series[key][side].append(value)

    print("%-13s %-40s %12s %23s %12s %23s %8s %5s  %s" %
          ("workload", "metric", "base median", "base q1..q3", "new median",
           "new q1..q3", "worse", "won", "verdict"))
    regressions = 0
    for (workload, metric), (base, new) in sorted(series.items()):
        if not base or not new:
            continue
        better = direction.get(metric, "lower")
        win_share, worse, result = verdict(base, new, better,
                                           bound.get(metric))
        if metric not in direction:
            result = "-"
        regressions += result == "regression"
        b1, bm, b3 = quartiles(base)
        n1, nm, n3 = quartiles(new)
        print("%-13s %-40s %12.5g %11.5g..%-11.5g %12.5g %11.5g..%-11.5g "
              "%+7.1f%% %5.2f  %s" %
              (workload, metric, bm, b1, b3, nm, n1, n3, 100 * worse,
               win_share, result))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
