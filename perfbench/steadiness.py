#!/usr/bin/env python3
"""Runs the benchmark on several seeds per workload and reports, for every
end-to-end metric, the median, the quartiles and the spread (interquartile
distance as a share of the median) against the bound in BENCHMARK.json.

    python3 perfbench/steadiness.py --runs 10 [--sets 2] [--workloads tables,service]

Run from the repository root. Prints one row per set, workload and metric.
A spread is flagged when it reaches a third of the metric's bound. With
--sets 2 or more, the same seeds run again set after set, and a later
set's median is flagged when it is worse than the first set's by more than
the bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed ({out.returncode}):\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: correctness check failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args()
    metrics = bench["end_to_end"]

    print(f"{'set':<4}{'workload':<14}{'metric':<16}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}{'drift':>8}")
    for workload in args.workloads.split(","):
        first = {}
        for s in range(args.sets):
            runs = [run_once(bench["command"], workload, args.first_seed + i,
                             bench["run_seconds"]) for i in range(args.runs)]
            for m in metrics:
                name, bound = m["name"], m["bound"]
                q1, q2, q3 = statistics.quantiles([r[name] for r in runs], n=4)
                spread = (q3 - q1) / q2
                first.setdefault(name, q2)
                # Share by which this set's median is worse than the first's.
                worse = q2 / first[name] - 1 if m["better"] == "lower" else first[name] / q2 - 1
                flags = []
                if spread >= bound / 3:
                    flags.append("unsteady")
                if worse > bound:
                    flags.append("drifted")
                print(f"{s + 1:<4}{workload:<14}{name:<16}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                      f"{spread:>9.3f}{bound:>7.2f}{worse:>8.3f}"
                      + (f"  <-- {', '.join(flags)}" if flags else ""), flush=True)


if __name__ == "__main__":
    main()
