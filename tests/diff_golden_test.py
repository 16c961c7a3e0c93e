#!/usr/bin/env python3
"""Unit tests for bench/diff_golden.py.

Run directly (python3 tests/diff_golden_test.py) or via ctest, which registers this
file when a Python interpreter is found at configure time. Matching rows must pass;
a drifted value, a lost golden row and an extra fresh row must each fail.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "bench", "diff_golden.py")
sys.path.insert(0, os.path.join(REPO, "bench"))
sys.dont_write_bytecode = True  # Leave no __pycache__ in the source tree.

import diff_golden  # noqa: E402

GOLDEN = {
    "schema_version": 5,
    "bench": "chaos_sweep",
    "results": [
        {"bench": "chaos_sweep", "mechanism": "monitor", "problem": "bounded-buffer",
         "metric": "lost-signal_recall", "value": 1.0, "unit": "ratio"},
        {"bench": "chaos_sweep", "mechanism": "semaphore", "problem": "alarm-clock",
         "metric": "stall_fp", "value": 0, "unit": "trials"},
    ],
}


def edited(edit):
    doc = copy.deepcopy(GOLDEN)
    edit(doc)
    return doc


class DiffTest(unittest.TestCase):
    def test_matching_rows_pass_in_any_order(self):
        self.assertEqual(diff_golden.diff(GOLDEN, GOLDEN), [])
        reordered = edited(lambda d: d["results"].reverse())
        self.assertEqual(diff_golden.diff(GOLDEN, reordered), [])

    def test_drifted_value_is_a_regression(self):
        drifted = edited(lambda d: d["results"][0].update(value=0.5))
        lines = diff_golden.diff(GOLDEN, drifted)
        self.assertEqual(len(lines), 1)
        self.assertIn("lost-signal_recall", lines[0])
        self.assertIn("golden=1.0 fresh=0.5", lines[0])

    def test_missing_and_extra_rows_are_regressions(self):
        missing = edited(lambda d: d["results"].pop())
        self.assertIn("fresh=None", diff_golden.diff(GOLDEN, missing)[0])
        extra = edited(lambda d: d["results"].append(
            dict(d["results"][0], metric="stall_recall")))
        self.assertIn("golden=None", diff_golden.diff(GOLDEN, extra)[0])

    def test_drift_in_a_repeated_row_is_a_regression(self):
        # A mechanism with two solutions to one problem emits two rows with the same
        # (mechanism, problem, metric); a drift in the first one must not be hidden by
        # the second.
        repeated = edited(lambda d: d["results"].append(dict(d["results"][1], value=3)))
        self.assertEqual(diff_golden.diff(repeated, repeated), [])
        drifted = copy.deepcopy(repeated)
        drifted["results"][1]["value"] = 7
        lines = diff_golden.diff(repeated, drifted)
        self.assertEqual(len(lines), 1)
        self.assertIn("golden=0 fresh=7", lines[0])


class CommandLineTest(unittest.TestCase):
    def run_script(self, golden, fresh):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("golden.json", golden), ("fresh.json", fresh)):
                paths.append(os.path.join(tmp, name))
                with open(paths[-1], "w") as f:
                    json.dump(doc, f)
            return subprocess.run([sys.executable, SCRIPT, *paths],
                                  capture_output=True, text=True).returncode

    def test_exit_status_is_the_verdict(self):
        self.assertEqual(self.run_script(GOLDEN, GOLDEN), 0)
        self.assertEqual(self.run_script(GOLDEN, edited(lambda d: d["results"].pop())), 1)
        self.assertEqual(self.run_script(GOLDEN, {"results": [{"metric": "x"}]}), 2)

    def test_unreadable_file_is_a_usage_error(self):
        missing = os.path.join(tempfile.gettempdir(), "diff_golden_test_no_such_file.json")
        self.assertEqual(subprocess.run([sys.executable, SCRIPT, missing, missing],
                                        capture_output=True).returncode, 2)


if __name__ == "__main__":
    unittest.main()
