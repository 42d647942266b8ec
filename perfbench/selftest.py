#!/usr/bin/env python3
"""Benchmark self-test: a short run of every workload, untraced and traced.

    python3 perfbench/selftest.py [--seconds 8]

Asserts, for each workload and trace mode, that the last stdout line of
run.py is a JSON object with exactly the keys correct, attempted, failed and
metrics; that every metric BENCHMARK.json names for that mode is printed with
its unit and a finite value; and that every output check passed (correct is
true, failed is 0). Exits non-zero on the first violation.
"""

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def check(condition, message):
    if not condition:
        sys.exit(f"selftest: FAIL: {message}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    benchmark = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} trace={trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True)
            check(proc.returncode == 0,
                  f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label}: result keys {sorted(result)}")
            check(result["correct"] is True, f"{label}: correct is not true")
            check(result["failed"] == 0, f"{label}: {result['failed']} failed")
            check(result["attempted"] >= 1, f"{label}: nothing attempted")
            expected = {m["name"]: m["unit"] for m in benchmark[section]}
            check(set(result["metrics"]) == set(expected),
                  f"{label}: metric names differ from BENCHMARK.json: "
                  f"{sorted(set(expected) ^ set(result['metrics']))}")
            for name, metric in result["metrics"].items():
                check(metric["unit"] == expected[name],
                      f"{label}: {name} unit {metric['unit']!r}")
                value = metric["value"]
                check(isinstance(value, (int, float)) and math.isfinite(value),
                      f"{label}: {name} value {value!r}")
            print(f"selftest: ok {label} ({len(expected)} metrics, "
                  f"{result['attempted']} operations checked)", flush=True)
    print("selftest: all workloads passed")


if __name__ == "__main__":
    main()
