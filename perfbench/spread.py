#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload W [--runs 10] [--first-seed 1]

Runs the benchmark command once per seed, untraced, and prints for each
end-to-end metric its values, median, and the distance between the first
and third quartile as a share of the median, next to the metric's bound in
BENCHMARK.json. A spread below a third of the bound is steady enough.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    values, walls, bad = {}, [], 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        t0 = time.time()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.time() - t0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-2000:])
            sys.exit(f"seed {seed}: exit {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        bad += 0 if result["correct"] and result["failed"] == 0 else 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: {walls[-1]:.1f} s wall, correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}", flush=True)
    for m in spec["end_to_end"]:
        xs = values.get(m["name"], [])
        if len(xs) < 2:
            print(f"{m['name']}: too few values {xs}")
            continue
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        flag = "ok" if spread < m["bound"] / 3 else ("WIDE" if spread > m["bound"] else "within bound")
        print(f"{m['name']:12s} median {med:.6g} {m['unit']}  spread {spread:.3f}  bound {m['bound']}  {flag}")
        print(f"{'':12s} values {' '.join(f'{x:.6g}' for x in xs)}")
    print(f"wall per run: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; incorrect runs: {bad}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
