#!/usr/bin/env python3
"""Checks the sweep-determinism contract on the conformance table.

Usage:
    python3 tests/sweep_determinism_test.py TABLE_CONFORMANCE

Runs the table_conformance binary three times in a temporary directory: at one job,
at four jobs writing a checkpoint log, and at two jobs resuming from that log. The
resumed run must restore every seed it checkpointed and re-run none (its
"resume: N seed(s) restored, N now checkpointed" line), across a different worker
count and so a different chunk layout. The result rows of the two later runs must
equal the one-job run's under bench/diff_golden.py. Exit status 0 when all of that
holds; otherwise the first failing step's non-zero status. ctest registers this as
`contract_sweep_determinism` under the `contract` label.
"""

import os
import re
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIFF = os.path.join(REPO, "bench", "diff_golden.py")
RESTORED_ALL = re.compile(r"^resume: ([0-9]+) seed\(s\) restored, \1 now checkpointed",
                          re.MULTILINE)


def main(argv):
    if len(argv) != 2:
        print("usage: sweep_determinism_test.py TABLE_CONFORMANCE", file=sys.stderr)
        return 2
    binary = os.path.abspath(argv[1])
    with tempfile.TemporaryDirectory() as scratch:
        legs = [("one_job", ["--jobs=1"]),
                ("four_jobs", ["--jobs=4", "--resume=sweep.ckpt"]),
                ("resumed", ["--jobs=2", "--resume=sweep.ckpt"])]
        output = ""
        for name, args in legs:
            run = subprocess.run([binary, *args, f"--json={name}.json"], cwd=scratch,
                                 stdout=subprocess.PIPE, text=True)
            output = run.stdout
            if run.returncode != 0:
                sys.stdout.write(output)
                print(f"{name}: {binary} exited with status {run.returncode}",
                      file=sys.stderr)
                return run.returncode
        match = RESTORED_ALL.search(output)
        if match is None or int(match.group(1)) == 0:
            sys.stdout.write(output)
            print("resumed: not every checkpointed seed was restored", file=sys.stderr)
            return 1
        print(f"resumed: {match.group(0)}")
        for name in ("four_jobs", "resumed"):
            status = subprocess.run([sys.executable, DIFF, "one_job.json", f"{name}.json"],
                                    cwd=scratch).returncode
            if status != 0:
                return status
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
