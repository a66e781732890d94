#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed, one run at a time, and prints for every
metric the median of the runs and the distance between the first and third
quartiles as a share of that median (statistics.quantiles(values, n=4)):

    python3 perfbench/spread.py --workload edge_paced --seeds 1-10 --seconds 15

Compare the shares with the bounds in BENCHMARK.json: an end-to-end metric is
steady when its share stays well inside its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seeds_from(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()

    values = {}
    units = {}
    for seed in seeds_from(args.seeds):
        cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        try:
            result = json.loads(proc.stdout.strip().split("\n")[-1])
        except ValueError:
            print("seed %d: no result (exit code %d)" % (seed, proc.returncode), flush=True)
            continue
        print("seed %d: correct %s, attempted %d, failed %d" %
              (seed, result["correct"], result["attempted"], result["failed"]),
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print("%-34s %14s %-10s %8s" % ("metric", "median", "unit", "iqr/med"))
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
        share = (q[2] - q[0]) / abs(med) if med else float("nan")
        print("%-34s %14.6g %-10s %8.4f" % (name, med, units[name], share))


if __name__ == "__main__":
    main()
