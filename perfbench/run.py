#!/usr/bin/env python3
"""End-to-end benchmark of the SnapPix serving stack: build, then run.

Builds perfbench/ (the library from src/ plus the benchmark binary) into
.bench_build/ at the repository root, then runs one workload:

    python3 perfbench/run.py --workload edge_paced --seed 7 --seconds 10 --trace 0

The binary prints a run report and, as the last line of standard output, one
JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones. Build
output goes to standard error. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fleet_replay", "paper_mixed", "edge_paced")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "runtime", "server.h")):
        fail("no SnapPix sources next to perfbench/ (expected ../src)")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        os.makedirs(BUILD_DIR, exist_ok=True)
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR] + generator
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict):
        fail("benchmark printed no result line (exit code %d)" % proc.returncode)
    if proc.returncode != 0:
        sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
