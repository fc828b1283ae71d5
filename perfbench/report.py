#!/usr/bin/env python3
"""Prints every metric of every workload, untraced and traced, by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--workload W ...]

For each workload it makes one untraced run (the end-to-end metrics) and one
traced run (the per-layer metrics), then gives the tracing overhead as the
traced run's task time minus the untraced run's.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    spec = run.load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = {m["name"] for m in spec["end_to_end"]}
    total_failed = 0
    for w in args.workload or run.WORKLOADS:
        print(f"== {w}  (seed {args.seed}, {seconds:g} s)")
        runs = {}
        for trace in (0, 1):
            argv = ["--workload", w, "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            result, report, failures = run.measure(run.parse_args(spec, argv), spec)
            runs[trace] = report
            total_failed += result["failed"]
            kind = "traced" if trace else "untraced"
            print(f"  {kind}: attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
            for f in failures:
                print(f"    FAILED: {f}")
            # Untraced: the end-to-end metrics. Traced: every metric the run
            # measured, including layers of workloads outside BENCHMARK.json.
            shown = result["metrics"] if not trace else {
                k: v for k, v in report["metrics"].items() if k not in e2e}
            for name, m in shown.items():
                better = f"{names[name]['better']} is better" if name in names else "not in BENCHMARK.json"
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']:6s} ({better})")
            if trace:
                idle = [m["name"] for m in spec["per_layer"] if m["name"] not in report["metrics"]]
                print(f"  layers not called: {' '.join(idle) or '-'}")
        for k, v in sorted(runs[0]["info"].items()):
            print(f"  info.{k}: {v}")
        for k, v in sorted(runs[0]["fingerprints"].items()):
            print(f"  fingerprint.{k}: {v}")
        plain, traced = runs[0]["metrics"]["task_s"]["value"], runs[1]["metrics"]["trace.task_s"]["value"]
        print(f"  tracing overhead on task_s: {traced - plain:+.4f} s ({100 * (traced - plain) / plain:+.1f}%)")
    sys.exit(1 if total_failed else 0)


if __name__ == "__main__":
    main()
