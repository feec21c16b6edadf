#!/usr/bin/env python3
"""Run the benchmark on several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload <name> --seeds 1 2 3 4 5 [--seconds 20] [--trace 0]

For every metric: the median of the runs, and the distance between the first
and third quartiles (statistics.quantiles(values, n=4)) as a share of the
median -- the figure each end-to-end bound in BENCHMARK.json is set against.
Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode != 0:
            sys.exit("seed %d: exit code %d" % (seed, out.returncode))
        res = json.loads(out.stdout.splitlines()[-1])
        runs.append(res)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, res["correct"], res["attempted"], res["failed"]), file=sys.stderr)
    print("%-28s %14s %10s" % ("metric", "median", "IQR/median"))
    for name, m in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        spread = float("nan")
        if len(values) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / abs(med)
        print("%-28s %14.6g %10.4f  %s" % (name, med, spread, m["unit"]))


if __name__ == "__main__":
    main()
