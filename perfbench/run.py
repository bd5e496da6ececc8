#!/usr/bin/env python3
"""Builds and runs the mlsc benchmark for one workload.

    python3 perfbench/run.py --workload paper-map|fine-map|replay-mix|churn \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every run configures and builds the
library plus the benchmark driver (Release) under $CARGO_TARGET_DIR
(default .bench_build); after the first, that only checks the build is
current.  The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and the
per-layer metrics for --trace 1.  Build logs and run metadata go to
standard error.  A failed build or run exits non-zero without a result.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-map", "fine-map", "replay-mix", "churn")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures and builds the driver; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs,
              "--target", "mlsc_perfbench"]]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return os.path.join(out, "mlsc_perfbench")


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def metric_names(trace):
    """The metric names BENCHMARK.json lists for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def replicas():
    """Concurrent copies of the run, one per vCPU up to 4.  Host noise
    here is largely independent per vCPU, so the mean over copies is
    steadier than any one copy.  (fine-map's second mapping thread is
    busy about a tenth of its mapping time, so it adds little load.)"""
    return max(1, min(4, os.cpu_count() or 1))


def run(binary, args):
    """Runs the replicas and returns their JSON reports."""
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", build_dir(), "--git-sha", git_sha()]
    procs = []
    try:
        for i in range(replicas()):
            procs.append(subprocess.Popen(
                command + ["--replica", str(i)], stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True))
        outputs = [p.communicate(timeout=RUN_TIMEOUT_S) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
            p.wait()
    reports = []
    for p, (out, err) in zip(procs, outputs):
        sys.stderr.write(err)
        if p.returncode != 0:
            raise RuntimeError("benchmark exited with %d" % p.returncode)
        reports.append(json.loads(out.strip().splitlines()[-1]))
    return reports


def combine(reports):
    """One report from the replicas: host metrics are averaged, exact
    values must agree."""
    first = reports[0]
    metrics = {}
    for name, metric in first["metrics"].items():
        values = [r["metrics"][name]["value"] for r in reports]
        value = values[0] if len(set(values)) == 1 else sum(values) / len(values)
        metrics[name] = {"value": value, "unit": metric["unit"]}
    failures = [f for r in reports for f in r["failures"]]
    if any(r["exact"] != first["exact"] for r in reports):
        failures.append("replicas disagree on simulated results")
    return {
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "failures": failures,
        "metrics": metrics,
        "meta": dict(first["meta"], replicas=len(reports)),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
        report = combine(run(binary, args))
    except (RuntimeError, OSError, subprocess.TimeoutExpired,
            ValueError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1

    expected = metric_names(args.trace)
    metrics = report["metrics"]
    problems = list(report["failures"])
    if sorted(metrics) != sorted(expected):
        problems.append("metric names differ from BENCHMARK.json")
    for name, metric in metrics.items():
        if not math.isfinite(metric["value"]):
            problems.append("%s is not finite" % name)
    for problem in problems:
        print("check failed: %s" % problem, file=sys.stderr)
    print("meta: %s" % json.dumps(report["meta"], sort_keys=True),
          file=sys.stderr)

    result = {
        "correct": report["failed"] == 0 and report["attempted"] >= 1
        and not problems,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: metrics[name] for name in expected
                    if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
