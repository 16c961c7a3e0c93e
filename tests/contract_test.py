#!/usr/bin/env python3
"""Runs one golden bench and diffs its result rows against the checked-in golden file.

Usage:
    python3 tests/contract_test.py BINARY GOLDEN [ARG...]

Runs `BINARY ARG... --json=<temp file>`, then `bench/diff_golden.py GOLDEN <temp
file>`. Exit status 0 when the bench exits 0 and its rows equal the golden rows;
otherwise the bench's or the differ's non-zero status. ctest registers one entry per
golden bench under the `contract` label, so the behaviour contract CI checks can also
be run locally with `ctest -L contract`.
"""

import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIFF = os.path.join(REPO, "bench", "diff_golden.py")


def main(argv):
    if len(argv) < 3:
        print("usage: contract_test.py BINARY GOLDEN [ARG...]", file=sys.stderr)
        return 2
    binary, golden, args = argv[1], argv[2], argv[3:]
    with tempfile.TemporaryDirectory() as scratch:
        fresh = os.path.join(scratch, "fresh.json")
        run = subprocess.run([binary, *args, f"--json={fresh}"])
        if run.returncode != 0:
            print(f"{binary} exited with status {run.returncode}", file=sys.stderr)
            return run.returncode
        return subprocess.run([sys.executable, DIFF, golden, fresh]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
