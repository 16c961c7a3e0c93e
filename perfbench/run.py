#!/usr/bin/env python3
"""Build and run the syneval benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

The first run configures and builds perfbench/CMakeLists.txt (the library from src/
plus the syneval_perf benchmark binary) into .bench_build/, or into $CARGO_TARGET_DIR when
that is set; later runs only check that the build is up to date. Build output goes
to standard error, so the last line of standard output is always syneval_perf's JSON
result. The exit status is 0 when the run completed and every correctness check
passed, and non-zero otherwise, with no result printed when the build or the run
itself failed.

Workloads, metrics and the default seed are described in perfbench/README.md.
"""

import argparse
import fcntl
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("os_mix", "conformance_sweep", "dpor_prove", "chaos_soak")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880
# Fixed malloc settings for syneval_perf. With glibc's defaults, freed heap memory goes
# back to the kernel and is faulted in again, and the dynamic mmap threshold moves as
# the run goes on: on a 4-vCPU VM one dpor_prove pass took 270k-945k minor faults and
# 4.6-7.0 s, and with fixed thresholds ~400 faults. One arena makes peak RSS
# independent of how many arenas racing sweep workers happen to create (chaos_soak
# peaked at 6.8 or 9.8 MB from run to run).
MALLOC_TUNABLES = ("glibc.malloc.mmap_threshold=0x2000000:"
                   "glibc.malloc.trim_threshold=0x10000000:glibc.malloc.arena_max=1")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures (once) and builds syneval_perf; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no syneval source tree next to perfbench/ (src/CMakeLists.txt missing)")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, os.cpu_count() or 1))
    with open(os.path.join(build_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", build_dir, "--target", "syneval_perf",
                      "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                      stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if done.returncode != 0:
                fail("build step %s exited with %d" % (step[:2], done.returncode))
    return os.path.join(build_dir, "syneval_perf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the self-test smoke run)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", os.path.join(build_dir, "scratch")]
    if args.smoke:
        command.append("--smoke")
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(filter(None, [env.get("GLIBC_TUNABLES"), MALLOC_TUNABLES]))
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stdout)
        fail("syneval_perf exited with %d and no result" % done.returncode)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0 if '"correct": true' in lines[-1] else 1


if __name__ == "__main__":
    sys.exit(main())
