#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workload dagrnn-n207 --seeds 1-10

Spread is the distance between the first and third quartile of the values
(statistics.quantiles(values, n=4)) as a share of their median, next to the
metric's bound from BENCHMARK.json. Use it to check that the benchmark is
steady on a host, and to compare two builds: run it on each and compare the
medians.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in benchmark["end_to_end"]}
    values, bad = {}, 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--trace", str(args.trace)]
        if args.seconds:
            cmd += ["--seconds", str(args.seconds)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"seed {seed}: run.py exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        bad += not result["correct"] or result["failed"] > 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    print(f"{'metric':40s} {'median':>14s} {'spread':>8s} {'bound':>6s}")
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
        print(f"{name:40s} {median:14.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    if bad:
        sys.exit(f"{bad} run(s) were incorrect or had failures")


if __name__ == "__main__":
    main()
