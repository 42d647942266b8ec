#!/usr/bin/env python3
"""EnhanceNet benchmark entry point.

Builds the benchmark driver from the sources in this checkout (once; later
runs reuse the build), runs one workload and prints the result as the last
line of stdout:

    python3 perfbench/run.py --workload dagrnn-n207 --seed 1 --seconds 40 --trace 0

--trace 0 prints every end-to-end metric named in BENCHMARK.json, --trace 1
every per-layer metric. The full result, stamped with the host, build and
seed, is also written atomically to
<build dir>/perfbench/results/<workload>-seed<seed>-trace<trace>.json.
The workloads and their frozen parameters (rates, SLO, target MAE, step
counts) are the table at the top of perfbench/driver.cc; perfbench/README.md
explains them.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DRIVER_TIMEOUT_S = 170
DEFAULT_SEED = 1
# Compute-pool size (ENHANCENET_NUM_THREADS, capped at nproc). 4 threads made
# step times spread 11-22% between runs on a shared 4-vCPU host; 2 kept it
# at 1-8% (perfbench/README.md).
COMPUTE_THREADS = 2


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build_driver(out):
    """Configures (first run only) and builds the driver; returns its path."""
    log = out / "build.log"
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_driver",
                  "-j", jobs])
    with open(log, "w") as sink:
        for cmd in steps:
            if subprocess.run(cmd, stdout=sink, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return out / "perfbench_driver"


def cpu_info():
    model, mhz = "unknown", []
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key == "model name":
                model = value.strip()
            elif key == "cpu MHz":
                mhz.append(float(value))
    except OSError:
        pass
    return model, (sum(mhz) / len(mhz) if mhz else None)


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """SHA-256 over the library sources and build files, so a result names
    the code it measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "cmake", HERE.name):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def write_atomic(path, payload):
    """Writes JSON to a tmp file, re-parses it, then renames it into place."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    json.loads(tmp.read_text())
    os.replace(tmp, path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("CMakeLists.txt", "src/CMakeLists.txt"):
        if not (ROOT / needed).is_file():
            fail(f"no EnhanceNet sources here ({needed} is missing)")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seed = DEFAULT_SEED if args.seed is None else args.seed
    seconds = benchmark["run_seconds"] if args.seconds is None else args.seconds
    if seed < 0 or seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    driver = build_driver(out)
    scratch = out / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    started = time.time()
    try:
        env = dict(os.environ, ENHANCENET_NUM_THREADS=str(
            min(COMPUTE_THREADS, os.cpu_count() or 1)))
        proc = subprocess.run(
            [str(driver), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace),
             "--scratch", str(scratch)],
            capture_output=True, text=True, timeout=DRIVER_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        fail(f"driver exited with code {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    section = "layers" if args.trace else "metrics"
    wanted = benchmark["per_layer" if args.trace else "end_to_end"]
    metrics, missing = {}, []
    for metric in wanted:
        value = raw[section].get(metric["name"])
        if value is None:
            missing.append(metric["name"])
            continue
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    checks = raw["checks"]
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    correct = not missing and failed == 0 and all(
        value for key, value in checks.items() if key != "target_reached")

    model, mhz = cpu_info()
    info = raw["info"]
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "missing": missing, "checks": checks,
        "fail_frac": failed / attempted if attempted else None,
        "workload": args.workload, "seed": seed, "seconds": seconds,
        "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "cpu_model": model, "cpu_mhz": mhz,
                 "compute_threads": info.get("compute_threads"),
                 "client_threads": info.get("client_threads")},
        "build": {"cmake_build_type": info.get("build_type"),
                  "git_commit": git_commit(), "source_sha256": source_digest()},
        "run": {"started_unix": started, "wall_s": time.time() - started},
        # What the driver ran: the workload's parameters, step times, val curve.
        "driver": info,
        "all_metrics": raw["metrics"], "all_layers": raw["layers"],
    }
    path = out / "results" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    write_atomic(path, result)
    if missing:
        print(f"perfbench: missing metrics {', '.join(missing)}")
    print(f"perfbench: {args.workload} seed={seed} fail_frac={result['fail_frac']} "
          f"checks={json.dumps(checks)} result={path}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
