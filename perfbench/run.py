#!/usr/bin/env python3
"""Build and run the damkit benchmark for one workload.

    python3 perfbench/run.py --workload serve-uncached --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
driver (perfbench/CMakeLists.txt, which compiles the libraries from src/)
into .bench_build/perfbench; later runs only re-check that build.

Prints an "env" line (nproc, build type, compiler, load average at start),
the driver's "detail" line, and as the last line one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list.
A run whose output misses a listed metric, or gives one without the listed
unit, fails: nonzero exit and no result line.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
DRIVER_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg, code=1):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then bring the driver up to date. Compiler output
    goes to stderr so stdout carries only results."""
    env = dict(os.environ)
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)  # keep compiler temporaries in the checkout
    steps = []
    configured = (BUILD_DIR / "CMakeCache.txt").exists() and any(
        (BUILD_DIR / f).exists() for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        steps.append(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                               stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if r.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def cache_value(key):
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return ""


def env_stamp(load_at_start):
    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=30).stdout
            version = out.splitlines()[0] if out else ""
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"nproc": os.cpu_count(), "build_type": cache_value("CMAKE_BUILD_TYPE"),
            "compiler": version or compiler, "loadavg_1m": load_at_start[0],
            "loadavg_5m": load_at_start[1]}


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def validate(result, expected):
    """Return a list of problems with one result object (empty = valid)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"'{key}' is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("'attempted' is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["'metrics' is not an object"]
    for name, unit in expected.items():
        m = metrics.get(name)
        if m is None:
            problems.append(f"metric '{name}' is missing")
            continue
        if not m.get("unit"):
            problems.append(f"metric '{name}' has no unit")
        elif m["unit"] != unit:
            problems.append(f"metric '{name}' has unit '{m['unit']}', "
                            f"BENCHMARK.json says '{unit}'")
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or not math.isfinite(v):
            problems.append(f"metric '{name}' has no finite value")
    for name in metrics:
        if name not in expected:
            problems.append(f"metric '{name}' is not in BENCHMARK.json")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    load_at_start = os.getloadavg()

    if not (ROOT / "BENCHMARK.json").exists():
        fail("BENCHMARK.json not found at the repository root")
    expected = expected_metrics(args.trace)
    build()
    print("env " + json.dumps(env_stamp(load_at_start)), flush=True)

    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
    sys.stderr.write(r.stderr)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        fail(f"driver exited with code {r.returncode}")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver's last line is not JSON")
    problems = validate(result, expected)
    if problems:
        fail("invalid result: " + "; ".join(problems), code=3)
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
