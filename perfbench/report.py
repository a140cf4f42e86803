#!/usr/bin/env python3
"""Run every workload once, untraced, and print its end-to-end metrics.

Run from the root of a checkout:

    python3 perfbench/report.py --seed 1 --seconds 55

Each metric is printed by name with its median, unit and sample count:
wall_s, setup_s, cpu_s and peak_rss_mb; failed_ops, the share of
invocations the correctness gate failed; and checks_inconclusive, the
inconclusive verify reports per pass (verify workloads only).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
         "checks_inconclusive": "count"}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    print(f"{'workload':<20}{'metric':<22}{'median':>12}  {'unit':<7}{'samples':>8}")
    ok = True
    for name in workloads:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            print(f"{name:<20}run failed (exit {proc.returncode}): {proc.stderr.strip()}")
            ok = False
            continue
        with open(os.path.join(".perfbench", name, "run.json"), encoding="utf-8") as fh:
            run = json.load(fh)
        for metric, unit in UNITS.items():
            values = run["samples"].get(metric)
            if values:
                print(f"{name:<20}{metric:<22}{statistics.median(values):>12.6g}  "
                      f"{unit:<7}{len(values):>8}")
        result = run["result"]
        print(f"{name:<20}{'failed_ops':<22}{result['failed'] / result['attempted']:>12.6g}  "
              f"{'ratio':<7}{result['attempted']:>8}")
        print(f"{name:<20}{'negative control':<22}"
              f"{'caught' if run['negative_control_caught'] else 'NOT CAUGHT':>12}")
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
