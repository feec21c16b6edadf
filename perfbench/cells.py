#!/usr/bin/env python3
"""Print per-cell counts from a traced benchmark run.

    python3 perfbench/run.py --workload startlate-minmax --trace 1
    python3 perfbench/cells.py .bench_build/perfbench/trace-startlate-minmax-seeddefault.jsonl

For each (system, app) operation of the first measured pass: supersteps, pull
and push supersteps, edge computations (the paper's metric, Table 5 / Fig. 9),
computed vertices and updates, summed from the per-superstep records.
"""
import json
import sys


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    with open(sys.argv[1]) as fh:
        spans = [json.loads(line) for line in fh if line.strip()]
    first_pass = next(s["id"] for s in spans if s["name"] == "pass")
    print("%-10s %6s %5s %5s %12s %10s %9s" % (
        "cell", "steps", "pull", "push", "edge_comps", "computed", "updates"))
    for s in spans:
        if s["parent"] != first_pass or "detail" not in s:
            continue
        steps = s["detail"]
        print("%-10s %6d %5d %5d %12d %10d %9d" % (
            s["name"], len(steps),
            sum(1 for x in steps if x["mode"] != "push"),
            sum(1 for x in steps if x["mode"] == "push"),
            sum(x["edge_comps"] for x in steps),
            sum(x["computed"] for x in steps),
            sum(x["updates"] for x in steps)))


if __name__ == "__main__":
    main()
