#!/usr/bin/env python3
"""Measures the run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--seed0 1] [--seconds S] [WORKLOAD ...]

Runs run.py once per seed (seed0, seed0 + 1, ...) on each workload
(default: all of BENCHMARK.json's) and prints, per end-to-end metric,
the median and the interquartile range as a share of the median, next
to the metric's bound. A spread above a third of its bound is flagged.
Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    with open(SPEC_PATH) as f:
        spec = json.load(f)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.seed0, args.seed0 + args.runs):
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=True,
            ).stdout
            result = json.loads(out.splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: output checks failed")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            med = statistics.median(v)
            share = (q3 - q1) / med
            flag = "" if share <= m["bound"] / 3 else "  <-- above bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, share / m["bound"])
            print(f"{workload:20s} {m['name']:18s} median {med:14.6g} {m['unit']:5s} "
                  f"IQR/median {share:7.4f}  bound {m['bound']}{flag}", flush=True)
    print(f"worst spread as a share of its bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
