#!/usr/bin/env python3
"""Self-test of the benchmark, at small scale.

    python3 perfbench/selftest.py [--seconds 1] [--workloads a,b,c]

For every workload it checks that
  - one seed run twice gives bit-identical simulated figures and digests;
  - a traced run gives the same simulated figures as an untraced one;
  - a second seed changes the digest;
  - every run matches the reference model with zero failed ops;
and that run.py's result check rejects a missing metric or unit.
Exits nonzero on the first failed check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (perfbench/run.py)

WORKLOADS = ("serve-uncached", "scan-cached", "ingest-durable")
SIM_METRICS = ("sim_ops_per_s", "write_amp", "space_amp")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    r = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        sys.exit(f"FAIL {workload} seed {seed} trace {trace}: "
                 f"run.py exited {r.returncode}")
    result = json.loads(lines[-1])
    detail = next(json.loads(l[len("detail "):]) for l in lines
                  if l.startswith("detail "))
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"FAIL {workload} seed {seed}: correct={result['correct']} "
                 f"failed={result['failed']}")
    return result, detail


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", default="1")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()

    good = {"correct": True, "attempted": 1, "failed": 0, "metrics": {
        "a": {"value": 1.0, "unit": "s"}, "b": {"value": 2.0, "unit": "ms"}}}
    expected = {"a": "s", "b": "ms"}
    check(bench.validate(good, expected) == [], "guard accepts a full result")
    missing = json.loads(json.dumps(good))
    del missing["metrics"]["b"]
    check(bench.validate(missing, expected) != [], "guard rejects a missing metric")
    no_unit = json.loads(json.dumps(good))
    del no_unit["metrics"]["a"]["unit"]
    check(bench.validate(no_unit, expected) != [], "guard rejects a missing unit")

    for w in args.workloads.split(","):
        r1, d1 = run(w, 1, args.seconds, 0)
        r2, d2 = run(w, 1, args.seconds, 0)
        check(d1["sim"] == d2["sim"] and all(
            r1["metrics"][m] == r2["metrics"][m] for m in SIM_METRICS),
            f"{w}: seed 1 twice gives identical simulated figures and digest")
        _, dt = run(w, 1, args.seconds, 1)
        check(dt["sim"] == d1["sim"] and dt["traced_sim"] == d1["sim"],
              f"{w}: traced run gives the untraced simulated figures")
        _, d3 = run(w, 2, args.seconds, 0)
        check(d3["sim"]["digest"] != d1["sim"]["digest"],
              f"{w}: seed 2 changes the digest")
    print("selftest passed")


if __name__ == "__main__":
    main()
