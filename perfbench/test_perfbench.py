#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the driver like run.py does, then runs every workload in its
small --quick form and checks that
  - the metric names printed equal those in BENCHMARK.json, in both modes;
  - every operation passes its checks;
  - the churn generator is deterministic (same seed, same bytes);
  - fine-map's simulated results are identical at 1 and 2 threads;
  - traced and untraced runs give identical simulated results.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = run.WORKLOADS
_binary = None
_cache = {}


def binary():
    global _binary
    if _binary is None:
        _binary = run.build()
    return _binary


def quick(workload, trace, *extra):
    """Runs one quick workload (memoized) and returns its JSON report."""
    key = (workload, trace) + extra
    if key not in _cache:
        done = subprocess.run(
            [binary(), "--workload", workload, "--quick", "--seed", "7",
             "--trace", str(trace), "--work-dir", run.build_dir()] +
            list(extra),
            capture_output=True, text=True, check=True)
        _cache[key] = json.loads(done.stdout.strip().splitlines()[-1])
    return _cache[key]


def dump_stream(seed):
    return subprocess.run([binary(), "--dump-stream", "--seed", str(seed)],
                          capture_output=True, check=True).stdout


class MetricNames(unittest.TestCase):
    def test_names_match_benchmark_json(self):
        for trace in (0, 1):
            expected = run.metric_names(trace)
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    report = quick(workload, trace)
                    self.assertEqual(list(report["metrics"]), expected)

    def test_units_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            units = {m["name"]: m["unit"] for m in spec[section]}
            report = quick("replay-mix", trace)
            for name, metric in report["metrics"].items():
                self.assertEqual(metric["unit"], units[name], name)

    def test_no_failed_operations(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                report = quick(workload, 0)
                self.assertGreater(report["attempted"], 0)
                self.assertEqual(report["failed"], 0, report["failures"])


class ChurnGenerator(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(dump_stream(11), dump_stream(11))

    def test_other_seed_other_stream(self):
        self.assertNotEqual(dump_stream(11), dump_stream(12))

    def test_stream_has_every_event_kind(self):
        lines = dump_stream(11).decode().splitlines()
        kinds = {json.loads(line).get("event") for line in lines[1:]}
        self.assertEqual(kinds, {"register", "depart", "scale", "fault"})


class ExactSimulation(unittest.TestCase):
    def test_fine_map_thread_count_invariant(self):
        one = quick("fine-map", 0, "--threads", "1")
        two = quick("fine-map", 0, "--threads", "2")
        self.assertEqual(one["exact"], two["exact"])

    def test_traced_equals_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(quick(workload, 0)["exact"],
                                 quick(workload, 1)["exact"])


if __name__ == "__main__":
    unittest.main()
