#!/usr/bin/env python3
"""Steadiness check: runs workloads repeatedly, one seed per run, and prints
each end-to-end metric's median, quartiles and spread next to its bound.

    python3 perfbench/steady.py                       # 10 runs per workload
    python3 perfbench/steady.py --workloads serve_open_loop --runs 5

Spread is (Q3 - Q1) / median with statistics.quantiles(values, n=4). A
metric is steady when its spread is below a third of its bound (setup_s is
reported but only its median is compared between sets of runs). The failed
share (failed / attempted) must be the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first_seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    steady = True
    for workload in args.workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if out.returncode != 0:
                print("%s seed %d: exit code %d" % (workload, seed,
                                                    out.returncode))
                steady = False
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            runs.append(result)
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4)
                 for k, v in result["metrics"].items()})), flush=True)
        if len(runs) < 4:
            print("%s: too few runs" % workload)
            steady = False
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print("\n%s: %d runs, correct=%s, failed shares=%s" %
              (workload, len(runs), correct, sorted(shares)))
        steady = steady and correct and len(shares) == 1
        print("  %-18s %12s %12s %12s %8s %7s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady = steady and ok
            print("  %-18s %12.5g %12.5g %12.5g %8.4f %7.3f %s" %
                  (metric["name"], median, q1, q3, spread, metric["bound"],
                   "" if ok else "NOT STEADY"))
        print()
    print("steady" if steady else "NOT steady")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
