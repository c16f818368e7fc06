#!/usr/bin/env python3
"""Fail when a benchmark run regresses a watched metric vs a checked-in baseline.

Compares records (matched by "name") between a fresh bench JSON emitted by a
bench binary (bench_retrieval -> BENCH_retrieval.json, bench_recall ->
BENCH_recall.json, bench_fig_depth -> BENCH_depth.json, bench_fig_mixed_depth
-> BENCH_mixed_depth.json; schema in docs/BENCH.md) and a baseline checked in
under bench/baselines/. A record regresses when

    current.<metric> < (1 - tolerance) * baseline.<metric>

for the watched metric (default: qps; any higher-is-better metric works, e.g.
--metric recall_at_10 for the recall gate).
Records missing from either side are reported but do not fail the check
(configs come and go); metric-free records (e.g. the "summary" row) are
skipped.

QPS is machine-dependent: the baseline is only meaningful for the machine
family that produced it (the envelope's "note" field records the host).
Refresh it after intentional perf changes with --update (or by copying the
fresh JSON over the baseline) and commit the new baseline alongside the
change that moved the numbers. recall_at_10 is host-independent — the
kernels are bit-identical across CPUs — so the recall gate runs with a much
tighter tolerance (see the check_bench_regression CMake target).

Usage:
    tools/check_bench_regression.py [--current build/BENCH_retrieval.json]
                                    [--baseline bench/baselines/BENCH_retrieval.baseline.json]
                                    [--metric qps] [--tolerance 0.20] [--update]

Exit status: 0 = no regression, 1 = regression, 2 = usage/IO error.
"""

import argparse
import json
import os
import shutil
import sys


def load_records(path, role):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except FileNotFoundError:
        print(f"error: {role} file not found: {path}", file=sys.stderr)
        if role == "current":
            print("hint: run the matching bench binary first (e.g. ./build/bench_retrieval "
                  "writes BENCH_retrieval.json into its working directory)", file=sys.stderr)
        else:
            print("hint: create the baseline from a fresh run with --update "
                  "(then commit it under bench/baselines/)", file=sys.stderr)
        sys.exit(2)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {role} file {path}: {e}", file=sys.stderr)
        sys.exit(2)
    records = doc.get("records")
    if not isinstance(records, list):
        print(f"error: {path} has no 'records' array", file=sys.stderr)
        sys.exit(2)
    by_name = {}
    for rec in records:
        name = rec.get("name")
        if isinstance(name, str):
            by_name[name] = rec
    return doc.get("bench", "?"), by_name


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--current", default="build/BENCH_retrieval.json",
                        help="fresh bench JSON (default: %(default)s)")
    parser.add_argument("--baseline",
                        default="bench/baselines/BENCH_retrieval.baseline.json",
                        help="checked-in baseline JSON (default: %(default)s)")
    parser.add_argument("--metric", default="qps",
                        help="metric to watch (default: %(default)s)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop before failing (default: %(default)s)")
    parser.add_argument("--report-metric", action="append", default=[],
                        help="additionally print current-vs-baseline for this metric "
                             "WITHOUT gating on it (repeatable; e.g. "
                             "--report-metric prefill_tokens_saved on the e2e bench, "
                             "where the saved-token count is the mechanism being "
                             "tracked but goodput/f1 are the contract)")
    parser.add_argument("--update", action="store_true",
                        help="copy --current over --baseline instead of checking")
    args = parser.parse_args()

    if args.update:
        # Validate before overwriting the baseline, and say exactly what got
        # rewritten — a chained -update sweep over several benches should
        # leave an audit trail of which baselines actually moved.
        bench_cur, current = load_records(args.current, "current")
        try:
            baseline_dir = os.path.dirname(args.baseline)
            if baseline_dir:
                os.makedirs(baseline_dir, exist_ok=True)
            shutil.copyfile(args.current, args.baseline)
        except OSError as e:
            print(f"error: cannot update baseline {args.baseline}: {e}", file=sys.stderr)
            return 2
        print(f"baseline updated: {args.current} -> {args.baseline} "
              f"(bench {bench_cur!r}, {len(current)} records)")
        return 0

    bench_cur, current = load_records(args.current, "current")
    bench_base, baseline = load_records(args.baseline, "baseline")
    if bench_cur != bench_base:
        print(f"warning: bench names differ (current={bench_cur!r}, baseline={bench_base!r})")

    regressions = []
    compared = 0
    for name, base_rec in sorted(baseline.items()):
        base_val = base_rec.get(args.metric)
        if not isinstance(base_val, (int, float)) or base_val <= 0:
            continue
        cur_rec = current.get(name)
        if cur_rec is None:
            print(f"  [gone]  {name}: in baseline only (not failing)")
            continue
        cur_val = cur_rec.get(args.metric)
        if not isinstance(cur_val, (int, float)):
            print(f"  [gone]  {name}: no {args.metric!r} in current run (not failing)")
            continue
        compared += 1
        ratio = cur_val / base_val
        status = "ok" if ratio >= 1.0 - args.tolerance else "REGRESSED"
        print(f"  [{status:>9}] {name}: {args.metric} {base_val:.6g} -> {cur_val:.6g} "
              f"({100.0 * (ratio - 1.0):+.1f}%)")
        if status == "REGRESSED":
            regressions.append(name)
    for name in sorted(set(current) - set(baseline)):
        if isinstance(current[name].get(args.metric), (int, float)):
            print(f"  [new]   {name}: not in baseline (not failing)")

    # Informational metrics: tracked run to run for visibility, never gated.
    for metric in args.report_metric:
        printed = False
        for name, base_rec in sorted(baseline.items()):
            base_val = base_rec.get(metric)
            cur_val = current.get(name, {}).get(metric)
            if not isinstance(base_val, (int, float)) or not isinstance(cur_val, (int, float)):
                continue
            if not printed:
                print(f"  -- {metric} (informational, not gated) --")
                printed = True
            delta = ""
            if base_val > 0:
                delta = f" ({100.0 * (cur_val / base_val - 1.0):+.1f}%)"
            print(f"  [info] {name}: {metric} {base_val:.6g} -> {cur_val:.6g}{delta}")

    if compared == 0:
        print("error: no records with the watched metric in common", file=sys.stderr)
        return 2
    if regressions:
        print(f"\nFAIL: {len(regressions)}/{compared} record(s) regressed {args.metric} by more "
              f"than {100.0 * args.tolerance:.0f}%: {', '.join(regressions)}")
        return 1
    print(f"\nOK: {compared} record(s) within {100.0 * args.tolerance:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
