#!/usr/bin/env python3
"""Runs alternating parent/change pairs of one perfbench workload and compares them.

    python3 tools/ab_perfbench.py --parent <binary> --change <binary> \\
        --workload <name> --seed <n> --seconds <s> --pairs <n>

Pair i runs the parent first when i is even and the change first when it is
odd, each with --trace 0 and the caller's environment, so a variable set on
the command line reaches both sides (MALLOC_MMAP_THRESHOLD_=131072 python3
tools/ab_perfbench.py ... shows whether a peak_rss_mib difference is only
heap layout). For every end-to-end metric of BENCHMARK.json it
prints each side's median and quartiles, the change/parent ratio of the
medians, and how many pairs the change won (ties count for neither). Each
metric gets the verdicts a benchmark gate draws from such runs:

  gain        ten or more pairs, the change won at least 9 in 10 of them,
              and its median beats the parent's by more than the parent's
              interquartile range (fewer pairs never show a gain);
  regression  the change's median is worse than the parent's by more than
              the metric's BENCHMARK.json bound, as a fraction of the
              parent's median;
  unresolved  the parent's spread (IQR / median) exceeds that bound.

The exit code is non-zero when any run exits non-zero, reports
"correct": false or "failed" > 0, or when any simulated metric differs
between any two runs: they are exact per seed, so both trees must agree to
the last digit.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from check_perfbench_sim import SIMULATED  # noqa: E402


def run(binary, workload, seed, seconds):
    """Runs one workload quietly; returns (exit code, parsed last line or None)."""
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def quartiles(values):
    """(q1, median, q3) of `values`, inclusive method; one value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent tree's perfbench binary")
    parser.add_argument("--change", required=True, help="the change's perfbench binary")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    binaries = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    results = {"parent": [], "change": []}
    errors = []
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            code, result = run(binaries[side], args.workload, args.seed, args.seconds)
            if code != 0 or result is None:
                errors.append("pair %d %s: exit %d%s" % (i, side, code,
                                                         "" if result else ", no JSON result"))
                continue
            if result["correct"] is not True or result["failed"] != 0:
                errors.append("pair %d %s: correct=%s failed=%s" % (
                    i, side, result["correct"], result["failed"]))
            results[side].append(result["metrics"])
            sys.stderr.write("ab_perfbench: pair %d %s wall_qps_ref %.1f\n" % (
                i, side, result["metrics"]["wall_qps_ref"]["value"]))
    if errors or len(results["parent"]) != len(results["change"]):
        for e in errors:
            sys.stderr.write("ab_perfbench: FAIL %s\n" % e)
        return 1

    runs = results["parent"] + results["change"]
    for name in SIMULATED:
        values = sorted({r[name]["value"] for r in runs})
        if len(values) > 1:
            errors.append("simulated %s differs between runs: %s" % (name, values))

    print("ab_perfbench: %s seed %d, %g s, %d pairs (parent -> change)" % (
        args.workload, args.seed, args.seconds, args.pairs))
    print("%-16s %-30s %-30s %7s %6s  %s" % ("metric", "parent median [q1, q3]",
                                            "change median [q1, q3]", "ratio", "wins", "note"))
    for m in metrics:
        name, higher = m["name"], m["better"] == "higher"
        parent = [r[name]["value"] for r in results["parent"]]
        change = [r[name]["value"] for r in results["change"]]
        pq, cq = quartiles(parent), quartiles(change)
        wins = sum(1 for p, c in zip(parent, change) if (c > p if higher else c < p))
        gain = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
        notes = []
        if args.pairs >= 10 and wins * 10 >= 9 * args.pairs and gain > pq[2] - pq[0]:
            notes.append("gain")
        if pq[1] != 0 and -gain / abs(pq[1]) > m["bound"]:
            notes.append("regression: worse than the %g bound" % m["bound"])
        if pq[1] != 0 and (pq[2] - pq[0]) / abs(pq[1]) > m["bound"]:
            notes.append("unresolved: parent IQR above the %g bound" % m["bound"])
        ratio = cq[1] / pq[1] if pq[1] != 0 else float("nan")
        print("%-16s %-30s %-30s %7.3f %3d/%-2d  %s" % (
            name, "%.6g [%.6g, %.6g]" % (pq[1], pq[0], pq[2]),
            "%.6g [%.6g, %.6g]" % (cq[1], cq[0], cq[2]), ratio, wins, args.pairs,
            ", ".join(notes)))
    for e in errors:
        sys.stderr.write("ab_perfbench: FAIL %s\n" % e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
