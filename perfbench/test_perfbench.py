#!/usr/bin/env python3
"""Self-tests of the syneval benchmark.

    python3 perfbench/test_perfbench.py

Checks BENCHMARK.json against what syneval_perf prints: the four workloads exist, a
--smoke run of each (traced and untraced) exits 0 with error_rate 0 and prints
exactly the declared metrics, every name matches [A-Za-z0-9_.-]+, and a copy of the
benchmark without the source tree fails without printing a result.
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
WORKLOADS = ["os_mix", "conformance_sweep", "dpor_prove", "chaos_soak"]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


class BenchmarkJsonTest(unittest.TestCase):
    def test_workloads(self):
        bench = load_benchmark()
        self.assertEqual([w["name"] for w in bench["workloads"]], WORKLOADS)
        for workload in bench["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)

    def test_metric_names(self):
        bench = load_benchmark()
        names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup, [{"name": "setup_s", "unit": "s", "better": "lower",
                                  "bound": max(m["bound"] for m in bench["end_to_end"])}])


class SmokeRunTest(unittest.TestCase):
    def check(self, workload, trace):
        bench = load_benchmark()
        done = run(workload, trace)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertIn("error_rate", done.stdout)
        declared = bench["per_layer"] if trace else bench["end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        self.assertEqual(set(result["metrics"]), set(units))
        for name, metric in result["metrics"].items():
            self.assertRegex(name, NAME)
            self.assertEqual(metric["unit"], units[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(workload, 1)


class MissingSourceTest(unittest.TestCase):
    def test_fails_without_result(self):
        copy = os.path.join(ROOT, ".bench_build", "selftest-%d" % os.getpid())
        shutil.rmtree(copy, ignore_errors=True)
        os.makedirs(copy)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), copy)
            shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(copy, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("os_mix", 0, cwd=copy)
            self.assertNotEqual(done.returncode, 0)
            self.assertFalse(done.stdout.strip().startswith("{"))
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(copy, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
