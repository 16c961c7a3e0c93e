#!/usr/bin/env python3
"""Diffs a bench's fresh --json result rows against a checked-in golden file.

Usage:
    python3 bench/diff_golden.py GOLDEN FRESH

Both files are bench result documents (bench/validate_schema.py). Rows are keyed by
(mechanism, problem, metric, occurrence), where occurrence counts earlier rows with
the same (mechanism, problem, metric) in document order — a mechanism can solve one
problem several ways, and each such row is compared, not just the last one. Every row
must carry exactly the golden value: a row whose
value drifted, a golden row the fresh run lost, and a fresh row the golden file does
not have are all regressions, printed one per line on standard error. Exit status 0
when the rows match, 1 when they differ, 2 on a usage or read error. An intentional
change regenerates the golden file in the same change.
"""

import json
import sys


def rows(doc):
    """Maps (mechanism, problem, metric, occurrence) to value over a document's rows."""
    keyed, seen = {}, {}
    for r in doc["results"]:
        key = (r["mechanism"], r["problem"], r["metric"])
        seen[key] = seen.get(key, -1) + 1
        keyed[key + (seen[key],)] = r["value"]
    return keyed


def diff(golden, fresh):
    """Returns one line per row that differs between two documents' rows."""
    golden_rows, fresh_rows = rows(golden), rows(fresh)
    return [f"REGRESSION {key}: golden={golden_rows.get(key)} fresh={fresh_rows.get(key)}"
            for key in sorted(golden_rows.keys() | fresh_rows.keys())
            if golden_rows.get(key) != fresh_rows.get(key)]


def main(argv):
    if len(argv) != 3:
        print("usage: diff_golden.py GOLDEN FRESH", file=sys.stderr)
        return 2
    golden_path, fresh_path = argv[1], argv[2]
    docs = []
    for path in (golden_path, fresh_path):
        try:
            with open(path) as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as error:
            print(f"{path}: {error}", file=sys.stderr)
            return 2
    try:
        regressions = diff(*docs)
    except (KeyError, TypeError) as error:
        print(f"malformed result rows: {error!r}", file=sys.stderr)
        return 2
    for line in regressions:
        print(line, file=sys.stderr)
    if regressions:
        print(f"{fresh_path} differs from {golden_path}; if intentional, regenerate "
              f"{golden_path}", file=sys.stderr)
        return 1
    print(f"{len(rows(docs[1]))} rows match {golden_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
