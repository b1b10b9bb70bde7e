#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] [WORKLOAD ...]

Runs perfbench/run.py once per seed for each workload (default: every
workload in BENCHMARK.json), then prints, per metric, the median, the
first and third quartiles (statistics.quantiles, n=4), the quartile
distance as a share of the median, and the bound from BENCHMARK.json.
The spread must stay below the bound (a third of it, for a steady
benchmark); setup_s is exempt. Raw results go to .bench_out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for w in args.workloads:
        results = [run(w, args.first_seed + i, bench["run_seconds"])
                   for i in range(args.runs)]
        bad = [r for r in results if not r["correct"] or r["failed"]]
        print(f"== {w}: {args.runs} runs, {len(bad)} incorrect or failing")
        report[w] = {}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else float("inf")
            flag = "" if name == "setup_s" or share < bound / 3 else "  <-- spread"
            print(f"  {name:24s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  iqr/med {share:7.2%}  bound {bound:.0%}{flag}")
            report[w][name] = {"values": vals, "median": med, "q1": q1, "q3": q3,
                               "iqr_share": share}
        sys.stdout.flush()
    os.makedirs(".bench_out", exist_ok=True)
    with open(os.path.join(".bench_out", "spread.json"), "w") as f:
        json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
