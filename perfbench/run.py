#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload compile|campaign|serve \
        --seed N --seconds S --trace 0|1 [--held-out]

Run from the repository root. The first run configures and builds the
library and the perfbench binary (Release) into .bench_build; later
runs rebuild only what changed.

A run starts PROCESSES perfbench processes one after another, each in a
fresh, empty working directory
(.bench_build/runs/<workload>-s<seed>[-held-out]-t<trace>/p<k>). Process
k is part k of the seed: it draws its own ops and serving
configurations, and measures S / PROCESSES seconds of whole op blocks.
On a shared 4-core host the speed of one process varies by 10-20 %
from the next, while a process is steady within itself, and one
serving configuration can replay 20 % slower than another. So the run
reports the median over processes of every per-process metric,
op_p50_ms included. op_p90_ms is taken over the pooled ops of all
processes, so the tail rule counts every sample.

The processes' own output goes to stderr. Stdout holds one `#` line
per metric (name, value, unit, samples) and ends with the one-line
JSON result. The exit code is non-zero, with no result printed, when
the build or a process fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
PROCESSES = 5
PROCESS_TIMEOUT_S = 60
END_TO_END = ["setup_s", "op_p50_ms", "op_p90_ms", "ops_per_s",
              "peak_rss_mb", "model_energy_ratio"]


def nearest_rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples."""
    # The epsilon keeps 90 % of 100 at rank 90 despite rounding.
    return min(max(math.ceil(p / 100.0 * n - 1e-9), 1), n)


def percentile(values, p):
    """Nearest-rank p-th percentile: a sample, never an interpolation."""
    if not values:
        return 0.0
    return sorted(values)[nearest_rank(len(values), p) - 1]


def samples_beyond(n, p):
    return n - nearest_rank(n, p) if n else 0


def tail_rule_met(n, p):
    """At least ten samples must lie beyond a reported percentile."""
    return samples_beyond(n, p) >= 10


def merge(results, trace):
    """Merge per-process results into the benchmark's result.

    Failed ops count against attempted ops across all processes, and a
    process that failed a run-level check makes the run incorrect.
    Returns (result, notes): notes maps a metric name to its sample
    note.
    """
    failed = sum(r["failed"] for r in results)
    correct = failed == 0 and all(r["correct"] for r in results)
    metrics, notes = {}, {}
    for name, first in results[0]["metrics"].items():
        value = statistics.median(r["metrics"][name]["value"]
                                  for r in results)
        metrics[name] = {"value": value, "unit": first["unit"]}
        notes[name] = "median of %d processes" % len(results)
    if not trace:
        metrics["op_p50_ms"] = {
            "value": statistics.median(statistics.median(r["op_ms"])
                                       for r in results),
            "unit": "ms"}
        notes["op_p50_ms"] = "median of %d process medians" % len(results)
        op_ms = [ms for r in results for ms in r["op_ms"]]
        n = len(op_ms)
        metrics["op_p90_ms"] = {"value": percentile(op_ms, 90), "unit": "ms"}
        notes["op_p90_ms"] = "n=%d pooled, %d beyond%s" % (
            n, samples_beyond(n, 90),
            "" if tail_rule_met(n, 90) else ", below the tail rule")
        metrics = {name: metrics[name] for name in END_TO_END}
    result = {"correct": correct,
              "attempted": sum(r["attempted"] for r in results),
              "failed": failed,
              "metrics": metrics}
    return result, notes


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"),
                     "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    make = ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def run_process(command, workdir):
    """One perfbench process; returns its parsed result or None."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        done = subprocess.run(command, cwd=workdir, stdout=subprocess.PIPE,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: process exceeded %d s" % PROCESS_TIMEOUT_S,
              file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if done.returncode != 0 or not lines:
        print("perfbench: process exited with %d" % done.returncode,
              file=sys.stderr)
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        print("perfbench: process printed no result", file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["compile", "campaign", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--held-out", action="store_true",
                        help="draw from the held-out seed stream")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in 1..60")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1

    name = "%s-s%d%s-t%s" % (args.workload, args.seed,
                             "-held-out" if args.held_out else "",
                             args.trace)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / PROCESSES),
               "--trace", args.trace]
    if args.held_out:
        command.append("--held-out")
    results = []
    for k in range(PROCESSES):
        result = run_process(command + ["--part", str(k)],
                             os.path.join(BUILD, "runs", name, "p%d" % k))
        if result is None:
            return 1
        results.append(result)

    result, notes = merge(results, args.trace == "1")
    print("# workload %s seed %d%s: %d processes, %d ops, %d failed, "
          "first-block digests %s" % (
              args.workload, args.seed,
              " (held-out)" if args.held_out else "", len(results),
              result["attempted"], result["failed"],
              " ".join(r["digest"] for r in results)))
    for metric, entry in result["metrics"].items():
        print("# %s = %r %s  (%s)" % (metric, entry["value"], entry["unit"],
                                      notes[metric]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
