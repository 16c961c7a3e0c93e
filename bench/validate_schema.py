#!/usr/bin/env python3
"""Validates bench --json output against the current result schema (version 5).

Usage:
    python3 bench/validate_schema.py [--bench=NAME] FILE [FILE ...]

Every file must be a schema-5 document as bench/harness.cc writes it:

  * envelope: "schema_version" == 5 and a string "bench" (equal to NAME when --bench
    is given);
  * "results": a non-empty list of rows, each with bench, mechanism, problem, metric,
    value and unit, and a numeric value;
  * "workers" (optional): each shard carries worker, trials, chunks, steals, cached
    and wall_seconds;
  * "supervisor" (optional): reaped, crashed, retried and quarantined;
  * "journal" (optional): appends, compactions and replayed;
  * "postmortem" (optional): each entry carries mechanism, problem, seed, cause and
    text — the replay coordinates a red run's artifact is useless without.

Older schema versions are rejected: every bench writes version 5. Checks that belong
to one job (the chaos recall gate, trace or worker presence) stay in that job.
Exit status 0 when every file validates, 1 otherwise.
"""

import json
import numbers
import sys

SCHEMA_VERSION = 5
ROW_KEYS = {"bench", "mechanism", "problem", "metric", "value", "unit"}
WORKER_KEYS = {"worker", "trials", "chunks", "steals", "cached", "wall_seconds"}
SUPERVISOR_KEYS = {"reaped", "crashed", "retried", "quarantined"}
JOURNAL_KEYS = {"appends", "compactions", "replayed"}
POSTMORTEM_KEYS = {"mechanism", "problem", "seed", "cause", "text"}


def _missing(where, obj, keys):
    if not isinstance(obj, dict):
        return [f"{where}: not an object"]
    missing = keys - obj.keys()
    return [f"{where}: missing {sorted(missing)}"] if missing else []


def validate(doc, bench=None):
    """Returns the list of schema violations in `doc` (empty when it is valid)."""
    if not isinstance(doc, dict):
        return ["document: not an object"]
    errors = []
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        errors.append(f"envelope: schema_version {version!r}, want {SCHEMA_VERSION}")
    if not isinstance(doc.get("bench"), str):
        errors.append("envelope: missing bench")
    elif bench is not None and doc["bench"] != bench:
        errors.append(f"envelope: bench {doc['bench']!r}, want {bench!r}")

    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errors.append("results: empty or missing")
        results = []
    for i, row in enumerate(results):
        row_errors = _missing(f"row {i}", row, ROW_KEYS)
        errors += row_errors
        if not row_errors and (not isinstance(row["value"], numbers.Real)
                               or isinstance(row["value"], bool)):
            errors.append(f"row {i}: non-numeric value")

    for i, worker in enumerate(doc.get("workers", [])):
        errors += _missing(f"worker {i}", worker, WORKER_KEYS)
    if "supervisor" in doc:
        errors += _missing("supervisor", doc["supervisor"], SUPERVISOR_KEYS)
    if "journal" in doc:
        errors += _missing("journal", doc["journal"], JOURNAL_KEYS)
    for i, pm in enumerate(doc.get("postmortem", [])):
        errors += _missing(f"postmortem {i}", pm, POSTMORTEM_KEYS)
    return errors


def main(argv):
    bench = None
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--bench="):
            bench = arg[len("--bench="):]
        else:
            paths.append(arg)
    if not paths:
        print("usage: validate_schema.py [--bench=NAME] FILE [FILE ...]", file=sys.stderr)
        return 2
    ok = True
    for path in paths:
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, ValueError) as error:
            print(f"{path}: {error}", file=sys.stderr)
            ok = False
            continue
        errors = validate(doc, bench)
        for error in errors:
            print(f"{path}: {error}", file=sys.stderr)
        if errors:
            ok = False
        else:
            print(f"{path}: {len(doc['results'])} rows, "
                  f"{len(doc.get('workers', []))} worker shards, "
                  f"{len(doc.get('postmortem', []))} postmortem entries ok")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
