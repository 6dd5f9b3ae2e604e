#!/usr/bin/env python3
"""Steadiness evidence: run one workload k times and summarise each metric.

    python3 perfbench/steady.py --workload plan_ckt_c [--runs 10]
        [--first-seed 1] [--seconds S] [--trace 0|1]

Runs the command from BENCHMARK.json once per seed (first-seed,
first-seed+1, ...) from the repository root and prints, for every metric,
the median, the quartiles (Python's ``statistics.quantiles(values, n=4)``),
the quartile spread as a share of the median, the max/min ratio, and the
bound from BENCHMARK.json with the spread as a share of that bound. Exits
non-zero if a run fails, reports ``correct: false``, or leaves a spread
(other than setup_s's) above its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}, no result", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()),
              file=sys.stderr)
        if not result["correct"] or result["failed"]:
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    worst = 0.0
    print(f"{args.workload}: {args.runs} runs of {args.seconds} s, seeds "
          f"{args.first_seed}..{args.first_seed + args.runs - 1}")
    print(f"{'metric':<24} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'max/min':>8} {'bound':>6} {'of bound':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        lo = min(vals)
        ratio = max(vals) / lo if lo else float("inf")
        bound = bounds.get(name)
        share = f"{spread / bound:8.2f}" if bound else f"{'-':>8}"
        print(f"{name:<24} {units[name]:<6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:8.4f} {ratio:8.4f} {bound if bound else '-':>6} {share}")
        if bound and name != "setup_s":
            worst = max(worst, spread / bound)
    print(f"worst spread / bound (setup_s excluded): {worst:.2f}")
    return 0 if worst <= 1.0 else 1


if __name__ == "__main__":
    sys.exit(main())
