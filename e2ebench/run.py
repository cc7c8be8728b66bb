#!/usr/bin/env python3
"""Builds and runs one workload of the ioSnap end-to-end benchmark.

Run from the repository root:

  python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 e2ebench/run.py --selftest

The simulator and the benchmark program, iosnap_e2e, are compiled from source
into .bench_build/e2ebench (a Release CMake build of this directory). The
program's human-readable report goes to stdout; its last line, which this
script prints last, is one JSON object {"correct", "attempted", "failed",
"metrics"}. Build logs go to stderr. The exit status is the program's: 0 when
the correctness gate passed, nonzero otherwise (and without a JSON line when
nothing ran).
See e2ebench/README.md.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
WORKLOADS = ("queued_randwrite", "snapshot_churn", "read_mostly")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("e2ebench: no simulator sources under %s/src" % ROOT)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target", target, "-j", jobs]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            sys.exit("e2ebench: build step failed: %s" % " ".join(cmd))
    return BUILD / target


def run_workload(args):
    binary = build("iosnap_e2e")
    trace_out = BUILD / ("trace_%s_%d.json" % (args.workload, args.seed))
    cmd = [str(binary), "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%s" % args.seconds, "--trace=%d" % args.trace]
    if args.trace:
        cmd.append("--trace_out=" + str(trace_out))
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S, text=True, check=False)
    except subprocess.TimeoutExpired:
        sys.exit("e2ebench: %s timed out after %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        sys.exit("e2ebench: iosnap_e2e exited %d without a result" % done.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(result))
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return subprocess.run([str(build("e2ebench_tests"))], check=False).returncode
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
