#!/usr/bin/env python3
"""CI gate over a BENCH_smoke.json metrics snapshot.

Two checks, both against closed-form or checked-in expectations:

  1. Regression: every simulated-time gauge (name ending in `.sim_seconds`
     or `.sim_steps`) present in the baseline must exist in the current
     snapshot and must not exceed the baseline by more than --threshold
     (default 15%). Simulated time is deterministic, so any increase is a
     real modeling/code change, not noise — the slack only exists to let
     intentional small refinements land without a baseline dance. Gated
     gauges present in the current snapshot but absent from the baseline
     also fail the gate (new bench sections must be baselined to be gated).

  2. Affine split: for every device section that exports a closed-form
     prediction (`<prefix>predicted_setup_seconds_per_io`), the measured
     split must agree within --affine-tolerance (default 5%). Disable
     with --no-affine for snapshots that have no affine section
     (bench_concurrency).

  3. PDAM throughput ratio: when the snapshot carries
     `pdam_predicted_ratio.k<K>` / `pdam_measured_ratio.k<K>` gauge pairs
     (bench_concurrency's normalized throughput-vs-clients curve against
     the Lemma 13 prediction), each measured ratio must agree with its
     prediction within --pdam-tolerance (default 35% — the prediction is
     an Omega() bound, not an equality). Skipped when no such gauges
     exist.

  4. MQ time ratio: the same pair check over `mq_predicted_ratio.q<Q>` /
     `mq_measured_ratio.q<Q>` (bench_mq's per-client time curve against
     the fitted MQ model), at the tighter --mq-tolerance (default 20% —
     the MQ law is a fit, not a bound). Skipped when no such gauges
     exist.

  5. Manifest: with --manifest FILE, every gauge-family prefix listed in
     the file's "families" array must match at least one gauge in the
     CURRENT snapshot. The pair checks above auto-activate only when
     their gauges exist, so a rename or dropped export would silently
     disarm them — the manifest turns that absence into a failure.

  6. Wall-clock mode (--wallclock): for BENCH_cpu.json snapshots. Gates
     host-time gauges instead of simulated time: `.wall_ns` must not grow
     and `.ops_per_sec` must not shrink beyond --wallclock-tolerance
     (default 50% — wall clock is noisy across hosts, so the gate only
     catches collapses, not drift). Implies skipping the simulated-time,
     affine, PDAM, and MQ checks (those gauges do not exist in a CPU
     snapshot); the manifest check still applies. With --advisory,
     wall-clock failures are reported but the exit status stays 0 — the
     CI shape for shared runners whose absolute speed is not a contract.

Usage: check_bench_regression.py CURRENT.json BASELINE.json
         [--threshold 0.15] [--affine-tolerance 0.05] [--no-affine]
         [--pdam-tolerance 0.35] [--mq-tolerance 0.20] [--manifest FILE]
         [--wallclock] [--wallclock-tolerance 0.5] [--advisory]

Exit status 0 iff every check passes. Stdlib only.
"""

import argparse
import json
import sys

GATED_SUFFIXES = (".sim_seconds", ".sim_steps")


def load_gauges(path):
    with open(path) as f:
        doc = json.load(f)
    gauges = doc.get("gauges", {})
    if not isinstance(gauges, dict):
        raise SystemExit(f"{path}: 'gauges' is not an object")
    return {k: float(v) for k, v in gauges.items()}


def check_regressions(current, baseline, threshold):
    failures, report = [], []
    gated = sorted(
        k for k in baseline if k.endswith(GATED_SUFFIXES)
    )
    if not gated:
        failures.append("baseline contains no gated *.sim_seconds gauges")
    for name in gated:
        base = baseline[name]
        if name not in current:
            failures.append(f"{name}: missing from current snapshot")
            continue
        cur = current[name]
        ratio = cur / base if base > 0 else float("inf")
        status = "ok"
        if cur > base * (1.0 + threshold):
            status = "REGRESSION"
            failures.append(
                f"{name}: {cur:.6g} vs baseline {base:.6g} "
                f"({(ratio - 1.0) * 100.0:+.1f}% > +{threshold * 100.0:.0f}%)"
            )
        elif cur < base * (1.0 - threshold):
            status = "improved (consider refreshing the baseline)"
        report.append(f"  {name}: {cur:.6g} / {base:.6g} ({status})")
    # Gated gauges that only exist in the current snapshot would otherwise
    # never be checked: a new bench section must enter the baseline before
    # it can regress silently.
    ungated = sorted(
        k for k in current
        if k.endswith(GATED_SUFFIXES) and k not in baseline
    )
    for name in ungated:
        failures.append(
            f"{name}: present in current snapshot but missing from the "
            f"baseline — refresh the baseline to gate this new section"
        )
        report.append(f"  {name}: {current[name]:.6g} / (no baseline) UNGATED")
    return failures, report


WALLCLOCK_SUFFIXES = (".wall_ns", ".ops_per_sec")


def check_wallclock(current, baseline, tolerance):
    """Noise-tolerant host-time gate for BENCH_cpu snapshots.

    `.wall_ns` gauges are lower-is-better; `.ops_per_sec` gauges are
    higher-is-better. (The micro sections' `.ns_per_op` gauges are
    reported, not gated.) The wide default tolerance makes this a collapse
    detector (a lost zero-copy path, an accidental O(n^2)), not a drift
    detector: wall clock varies across hosts and runs in ways simulated
    time never does.
    """
    failures, report = [], []
    gated = sorted(k for k in baseline if k.endswith(WALLCLOCK_SUFFIXES))
    if not gated:
        failures.append(
            "baseline contains no gated *.wall_ns / *.ops_per_sec gauges"
        )
    for name in gated:
        base = baseline[name]
        if name not in current:
            failures.append(f"{name}: missing from current snapshot")
            continue
        cur = current[name]
        if base <= 0:
            failures.append(f"{name}: baseline value {base:.6g} is not gateable")
            continue
        lower_better = name.endswith(".wall_ns")
        ratio = cur / base
        if lower_better:
            worse = cur > base * (1.0 + tolerance)
            improved = cur < base * (1.0 - tolerance)
        else:
            worse = cur < base * (1.0 - tolerance)
            improved = cur > base * (1.0 + tolerance)
        status = "ok"
        if worse:
            status = "REGRESSION"
            failures.append(
                f"{name}: {cur:.6g} vs baseline {base:.6g} "
                f"({(ratio - 1.0) * 100.0:+.1f}%, tolerance "
                f"{tolerance * 100.0:.0f}%, "
                f"{'lower' if lower_better else 'higher'} is better)"
            )
        elif improved:
            status = "improved (consider refreshing the baseline)"
        report.append(f"  {name}: {cur:.6g} / {base:.6g} ({status})")
    ungated = sorted(
        k for k in current
        if k.endswith(WALLCLOCK_SUFFIXES) and k not in baseline
    )
    for name in ungated:
        failures.append(
            f"{name}: present in current snapshot but missing from the "
            f"baseline — refresh the baseline to gate this new section"
        )
        report.append(f"  {name}: {current[name]:.6g} / (no baseline) UNGATED")
    return failures, report


def check_affine(current, tolerance):
    failures, report = [], []
    pairs = [
        ("setup_seconds_per_io", "predicted_setup_seconds_per_io"),
        ("transfer_seconds_per_byte", "predicted_transfer_seconds_per_byte"),
    ]
    prefixes = sorted(
        name[: -len("predicted_setup_seconds_per_io")]
        for name in current
        if name.endswith("predicted_setup_seconds_per_io")
    )
    if not prefixes:
        failures.append("no predicted_setup_seconds_per_io gauge found")
    for prefix in prefixes:
        for measured_key, predicted_key in pairs:
            measured = current.get(prefix + measured_key)
            predicted = current.get(prefix + predicted_key)
            if measured is None or predicted is None or predicted == 0:
                failures.append(f"{prefix}{measured_key}: pair incomplete")
                continue
            err = abs(measured - predicted) / predicted
            line = (
                f"  {prefix}{measured_key}: measured {measured:.6g}, "
                f"predicted {predicted:.6g} ({err * 100.0:.2f}% off)"
            )
            if err > tolerance:
                failures.append(
                    f"{prefix}{measured_key}: {err * 100.0:.2f}% from the "
                    f"closed-form prediction (> {tolerance * 100.0:.0f}%)"
                )
                line += "  FAIL"
            report.append(line)
    return failures, report


def check_ratio_pairs(current, family, tolerance, what):
    """Measured vs predicted normalized ratio per sweep point.

    Auto-activates when <family>_predicted_ratio.<P> gauges are present;
    each must pair with <family>_measured_ratio.<P> within `tolerance`.
    """
    failures, report = [], []
    prefix = f"{family}_predicted_ratio."
    points = sorted(
        name[len(prefix):] for name in current if name.startswith(prefix)
    )
    for point in points:
        predicted = current.get(f"{family}_predicted_ratio.{point}")
        measured = current.get(f"{family}_measured_ratio.{point}")
        if measured is None or not predicted:
            failures.append(
                f"{family}_measured_ratio.{point}: pair incomplete"
            )
            continue
        err = abs(measured - predicted) / predicted
        line = (
            f"  {point}: measured {measured:.4g}x, predicted "
            f"{predicted:.4g}x ({err * 100.0:.1f}% off)"
        )
        if err > tolerance:
            failures.append(
                f"{family}_measured_ratio.{point}: {err * 100.0:.1f}% from "
                f"the {what} (> {tolerance * 100.0:.0f}%)"
            )
            line += "  FAIL"
        report.append(line)
    return failures, report


def check_manifest(current, manifest_path):
    """Every gauge-family prefix in the manifest must be populated.

    The ratio-pair checks only run when their gauges exist, so a bench
    that stops exporting them would pass CI with the gate silently
    disarmed. The manifest pins which families a snapshot must carry.
    """
    with open(manifest_path) as f:
        doc = json.load(f)
    families = doc.get("families")
    if not isinstance(families, list) or not families:
        raise SystemExit(f"{manifest_path}: 'families' must be a non-empty list")
    failures, report = [], []
    for family in families:
        count = sum(1 for name in current if name.startswith(family))
        line = f"  {family}*: {count} gauge(s)"
        if count == 0:
            failures.append(
                f"manifest family '{family}' matches no gauge in the "
                f"current snapshot — an expected export vanished"
            )
            line += "  FAIL"
        report.append(line)
    return failures, report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("current")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=0.15)
    parser.add_argument("--affine-tolerance", type=float, default=0.05)
    parser.add_argument(
        "--no-affine",
        action="store_true",
        help="skip the affine-split check (snapshot has no device section)",
    )
    parser.add_argument("--pdam-tolerance", type=float, default=0.35)
    parser.add_argument("--mq-tolerance", type=float, default=0.20)
    parser.add_argument(
        "--manifest",
        help="JSON file whose 'families' gauge-name prefixes must all be "
        "populated in the current snapshot",
    )
    parser.add_argument(
        "--wallclock",
        action="store_true",
        help="gate *.wall_ns / *.ops_per_sec host-time gauges instead of "
        "simulated time (BENCH_cpu snapshots); disables the sim-time, "
        "affine, PDAM, and MQ checks",
    )
    parser.add_argument("--wallclock-tolerance", type=float, default=0.5)
    parser.add_argument(
        "--advisory",
        action="store_true",
        help="report failures but exit 0 (CI shape for wall-clock gates on "
        "shared runners)",
    )
    args = parser.parse_args()

    current = load_gauges(args.current)
    baseline = load_gauges(args.baseline)

    if args.wallclock:
        failures, report = check_wallclock(
            current, baseline, args.wallclock_tolerance
        )
        print("wall-clock gauges vs baseline:")
        print("\n".join(report) or "  (none)")
        # Manifest failures stay hard even under --advisory: a missing
        # gauge family means the bench dropped an export (a code bug),
        # not that a shared runner was slow.
        hard_failures = []
        if args.manifest:
            man_failures, man_report = check_manifest(current, args.manifest)
            hard_failures += man_failures
            print("expected gauge families (manifest):")
            print("\n".join(man_report) or "  (none)")
        if failures or hard_failures:
            print("\nFAILED:", file=sys.stderr)
            for f in failures + hard_failures:
                print(f"  {f}", file=sys.stderr)
            if hard_failures:
                return 1
            if args.advisory:
                print(
                    "(advisory mode: wall-clock failures do not gate)",
                    file=sys.stderr,
                )
                return 0
            return 1
        print("\nall wall-clock bench gates passed")
        return 0

    reg_failures, reg_report = check_regressions(
        current, baseline, args.threshold
    )
    aff_failures, aff_report = ([], [])
    if not args.no_affine:
        aff_failures, aff_report = check_affine(
            current, args.affine_tolerance
        )
    pdam_failures, pdam_report = check_ratio_pairs(
        current, "pdam", args.pdam_tolerance, "Lemma 13 prediction"
    )
    mq_failures, mq_report = check_ratio_pairs(
        current, "mq", args.mq_tolerance, "fitted MQ model"
    )
    man_failures, man_report = ([], [])
    if args.manifest:
        man_failures, man_report = check_manifest(current, args.manifest)

    print("simulated-time gauges vs baseline:")
    print("\n".join(reg_report) or "  (none)")
    if not args.no_affine:
        print("affine-split consistency:")
        print("\n".join(aff_report) or "  (none)")
    if pdam_report or pdam_failures:
        print("PDAM throughput-vs-clients consistency:")
        print("\n".join(pdam_report) or "  (none)")
    if mq_report or mq_failures:
        print("MQ time-vs-clients consistency:")
        print("\n".join(mq_report) or "  (none)")
    if args.manifest:
        print("expected gauge families (manifest):")
        print("\n".join(man_report) or "  (none)")

    failures = (
        reg_failures + aff_failures + pdam_failures + mq_failures
        + man_failures
    )
    if failures:
        print("\nFAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        if args.advisory:
            print("(advisory mode: failures do not gate)", file=sys.stderr)
            return 0
        return 1
    print("\nall bench gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
