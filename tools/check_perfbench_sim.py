#!/usr/bin/env python3
"""Runs perfbench's workloads once each and checks their simulated metrics.

    python3 tools/check_perfbench_sim.py --perfbench <binary> --pin <json> [--record]

Each workload named in the pin runs at the pin's seed and seconds with
--trace 0. The check fails unless every run exits 0 with "correct": true and
"failed": 0, and its six simulated metrics equal the pin's to the last digit.
Those metrics are exact per seed (only the wall-clock ones vary by host), so
any difference is a behaviour change. A change meant to move them re-records
the pin with --record, which writes the runs' values instead of checking
them, and says why.
"""

import argparse
import json
import subprocess
import sys

SIMULATED = ("p50_delay_s", "p99_delay_s", "mean_f1", "goodput_qps", "served_frac",
             "cost_usd_per_kq")


def run(binary, workload, seed, seconds):
    """Runs one workload; returns (exit code, parsed last line or None)."""
    proc = subprocess.run([binary, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          stdout=subprocess.PIPE, text=True)
    sys.stdout.write(proc.stdout)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--perfbench", required=True, help="the perfbench binary")
    parser.add_argument("--pin", required=True, help="the pinned metrics (JSON)")
    parser.add_argument("--record", action="store_true",
                        help="write the runs' metrics into --pin instead of checking")
    args = parser.parse_args()

    with open(args.pin) as f:
        pin = json.load(f)
    errors = []
    recorded = {}
    for workload, expected in pin["workloads"].items():
        code, result = run(args.perfbench, workload, pin["seed"], pin["seconds"])
        if code != 0 or result is None:
            errors.append("%s: exit %d%s" % (workload, code,
                                             "" if result else ", no JSON result"))
            continue
        if result["correct"] is not True or result["failed"] != 0:
            errors.append("%s: correct=%s failed=%s" % (workload, result["correct"],
                                                       result["failed"]))
        got = {name: result["metrics"][name]["value"] for name in SIMULATED}
        recorded[workload] = got
        if args.record:
            continue
        for name in SIMULATED:
            if got[name] != expected[name]:
                errors.append("%s: %s = %r, pinned %r" % (workload, name, got[name],
                                                          expected[name]))
    if args.record and not errors:
        pin["workloads"] = recorded
        with open(args.pin, "w") as f:
            json.dump(pin, f, indent=2)
            f.write("\n")
        print("check_perfbench_sim: recorded %d workloads into %s" % (len(recorded), args.pin))
    for e in errors:
        sys.stderr.write("check_perfbench_sim: FAIL %s\n" % e)
    if not errors and not args.record:
        print("check_perfbench_sim: %d workloads match %s" % (len(recorded), args.pin))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
