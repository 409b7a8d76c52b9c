#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over many processes.

    python3 perfbench/noise_study.py --workloads serve-uncached,scan-cached \
        --seeds 1-10 [--seconds 10] [--trace 0]

Runs perfbench/run.py once per (workload, seed), one process at a time,
and prints for every metric (and for the raw, unnormalized host figures
from the detail line) the median and the quartile spread, (Q3 - Q1) /
median, with quartiles as statistics.quantiles(values, n=4) gives them.
For end-to-end metrics it also prints spread / bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW_FIELDS = ("run_ops_per_s_raw", "setup_s_raw", "kernel_ms_median")


def seeds_of(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {r.returncode}")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])["values"]
    return result, detail


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            result, detail = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"] or result["failed"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect result")
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            for name in RAW_FIELDS:
                values.setdefault("raw:" + name, []).append(detail[name])
            print(f"  {workload} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()
                if n in ("run_ops_per_s", "setup_s", "trace.overhead")) +
                f", raw={detail['run_ops_per_s_raw']:.6g}", flush=True)
        print(f"{workload}: {len(next(iter(values.values())))} runs")
        for name, vs in values.items():
            med, sp = spread(vs)
            line = f"  {name:34s} median {med:14.6g}  spread {sp:7.2%}"
            if name in bounds:
                line += f"  ({sp / bounds[name]:.2f} of bound {bounds[name]})"
            print(line, flush=True)


if __name__ == "__main__":
    main()
