#!/usr/bin/env python3
"""Unit tests for bench/validate_schema.py.

Run directly (python3 tests/validate_schema_test.py) or via ctest, which registers this
file when a Python interpreter is found at configure time. A good schema-5 document
must pass; each kind of damage the CI jobs rely on the validator to catch must fail.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(REPO, "bench", "validate_schema.py")
sys.path.insert(0, os.path.join(REPO, "bench"))
sys.dont_write_bytecode = True  # Leave no __pycache__ in the source tree.

import validate_schema  # noqa: E402

GOOD = {
    "schema_version": 5,
    "bench": "chaos_sweep",
    "jobs": 2,
    "wall_seconds": 1.5,
    "workers": [{"worker": 0, "trials": 4, "chunks": 2, "steals": 0, "cached": 0,
                 "wall_seconds": 0.7}],
    "supervisor": {"reaped": 0, "crashed": 0, "retried": 0, "quarantined": 0},
    "journal": {"appends": 3, "compactions": 1, "replayed": 0},
    "postmortem": [{"mechanism": "monitor", "problem": "bounded-buffer", "seed": 7,
                    "cause": "lost-signal", "text": "postmortem: lost-signal\n"}],
    "results": [{"bench": "chaos_sweep", "mechanism": "monitor",
                 "problem": "bounded-buffer", "metric": "lost-signal_recall",
                 "value": 1.0, "unit": "ratio"}],
}


def damaged(edit):
    doc = copy.deepcopy(GOOD)
    edit(doc)
    return doc


class ValidateTest(unittest.TestCase):
    def test_good_document_passes(self):
        self.assertEqual(validate_schema.validate(GOOD), [])
        self.assertEqual(validate_schema.validate(GOOD, bench="chaos_sweep"), [])

    def test_minimal_document_passes(self):
        doc = {"schema_version": 5, "bench": "b", "results": GOOD["results"]}
        self.assertEqual(validate_schema.validate(doc), [])

    def assertRejected(self, doc, fragment, bench=None):
        errors = validate_schema.validate(doc, bench)
        self.assertTrue(any(fragment in e for e in errors), errors)

    def test_older_schema_versions_are_rejected(self):
        for version in (1, 2, 3, 4, None):
            self.assertRejected(damaged(lambda d: d.update(schema_version=version)),
                                "schema_version")

    def test_envelope_needs_the_expected_bench(self):
        self.assertRejected(damaged(lambda d: d.pop("bench")), "missing bench")
        self.assertRejected(GOOD, "want 'perf'", bench="perf")

    def test_results_must_be_present_complete_and_numeric(self):
        self.assertRejected(damaged(lambda d: d.update(results=[])), "results")
        self.assertRejected(damaged(lambda d: d["results"][0].pop("unit")), "row 0")
        self.assertRejected(damaged(lambda d: d["results"][0].update(value="1.0")),
                            "non-numeric")

    def test_optional_objects_must_be_complete(self):
        self.assertRejected(damaged(lambda d: d["workers"][0].pop("cached")), "worker 0")
        self.assertRejected(damaged(lambda d: d["supervisor"].pop("quarantined")),
                            "supervisor")
        self.assertRejected(damaged(lambda d: d["journal"].pop("replayed")), "journal")
        self.assertRejected(damaged(lambda d: d["postmortem"][0].pop("seed")),
                            "postmortem 0")


class CommandLineTest(unittest.TestCase):
    def run_script(self, doc, *args):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "result.json")
            with open(path, "w") as f:
                json.dump(doc, f)
            return subprocess.run([sys.executable, SCRIPT, *args, path],
                                  capture_output=True, text=True).returncode

    def test_exit_status_is_the_verdict(self):
        self.assertEqual(self.run_script(GOOD), 0)
        self.assertEqual(self.run_script(GOOD, "--bench=chaos_sweep"), 0)
        self.assertEqual(self.run_script(GOOD, "--bench=other"), 1)
        self.assertEqual(self.run_script(damaged(lambda d: d.update(schema_version=4))), 1)


if __name__ == "__main__":
    unittest.main()
