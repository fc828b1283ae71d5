#!/usr/bin/env python3
"""Alternating parent/change pairs of the benchmark, written to a BENCH_*.json.

    python3 tools/bench_pairs.py --parent REV --workload W --pairs N [--seed S]
        [--out BENCH_<n>.json] [--tiny]

Run from the root of a checkout: that checkout, uncommitted edits included, is
the change. REV is checked out with `git worktree add --detach` into a
temporary directory, which is removed when the tool ends. Each side first runs
once with --tiny, unrecorded, so that its harness is built before any timed
run. Then each pair runs

    python3 perfbench/run.py --workload W --seed S --trace 0

once on each side, and which side runs first flips from pair to pair.

The output file holds one entry per workload and seed, so runs of several
workloads and seeds can share one file: an existing entry for the same
workload and seed is replaced, and other entries are kept. An entry records,
for each end-to-end metric of BENCHMARK.json, each side's values, median, q1
and q3, and the pairs the change won (ties count for neither side); each side's
failed and attempted operations and its fingerprint.* lines; the seed, the
order of every pair and nproc.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def run_bench(checkout, workload, seed, tiny):
    """One untraced run; returns (result line, {fingerprint name: digest})."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    cmd += ["--tiny"] if tiny else []
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited with {proc.returncode}")
    prints = {}
    for line in lines:
        if line.startswith("fingerprint."):
            name, _, digest = line.partition(": ")
            prints[name] = digest.strip()
    return json.loads(lines[-1]), prints


def summary(xs):
    if len(xs) == 1:
        q1 = med = q3 = xs[0]
    else:
        q1, med, q3 = statistics.quantiles(xs, n=4)
    return {"median": med, "q1": q1, "q3": q3, "values": xs}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="git revision of the parent commit")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--out", default="BENCH_pairs.json", help="output file, relative to the checkout root")
    ap.add_argument("--tiny", action="store_true", help="small inputs, to check the tool itself")
    args = ap.parse_args()
    if args.pairs < 1:
        sys.exit("bench_pairs: --pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    tmp = tempfile.mkdtemp(prefix="bench_pairs_")
    parent_dir = os.path.join(tmp, "parent")
    parent_rev = git("rev-parse", args.parent)
    git("worktree", "add", "--detach", parent_dir, parent_rev)
    try:
        checkouts = {"parent": parent_dir, "change": ROOT}
        for side in SIDES:
            run_bench(checkouts[side], args.workload, args.seed, tiny=True)
        runs = {side: [] for side in SIDES}
        prints = {side: {} for side in SIDES}
        order = []
        for i in range(args.pairs):
            sides = SIDES if i % 2 == 0 else SIDES[::-1]
            order.append(sides[0] + " first")
            for side in sides:
                result, fp = run_bench(checkouts[side], args.workload, args.seed, args.tiny)
                runs[side].append(result)
                for name, digest in fp.items():
                    seen = prints[side].setdefault(name, [])
                    if digest not in seen:
                        seen.append(digest)
            print(f"pair {i + 1}/{args.pairs} ({order[-1]}): " + "  ".join(
                f"{m['name']} {runs['parent'][-1]['metrics'].get(m['name'], {}).get('value')} -> "
                f"{runs['change'][-1]['metrics'].get(m['name'], {}).get('value')}"
                for m in spec["end_to_end"]), flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", parent_dir], cwd=ROOT, capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT, capture_output=True)

    metrics = {}
    for m in spec["end_to_end"]:
        values = {side: [r["metrics"][m["name"]]["value"] for r in runs[side] if m["name"] in r["metrics"]]
                  for side in SIDES}
        if not all(values.values()):
            continue
        sign = 1 if m["better"] == "lower" else -1
        pairs = list(zip(values["parent"], values["change"]))
        entry = {"unit": m["unit"], "better": m["better"], "bound": m["bound"]}
        entry.update({side: summary(values[side]) for side in SIDES})
        entry["change_wins"] = sum(1 for p, c in pairs if sign * (c - p) < 0)
        entry["ties"] = sum(1 for p, c in pairs if c == p)
        entry["median_change_pct"] = 100.0 * (entry["change"]["median"] / entry["parent"]["median"] - 1.0) \
            if entry["parent"]["median"] else None
        metrics[m["name"]] = entry
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    record = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs, "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)), "order": order,
        "parent": parent_rev, "change": git("rev-parse", "HEAD") + (" (with uncommitted edits)" if dirty else ""),
        "metrics": metrics,
        "operations": {side: {"attempted": sum(r["attempted"] for r in runs[side]),
                              "failed": sum(r["failed"] for r in runs[side])} for side in SIDES},
        "fingerprints": prints,
    }
    out = os.path.join(ROOT, args.out)
    try:
        with open(out) as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        doc = {}
    doc[f"{args.workload}@{args.seed}{' tiny' if args.tiny else ''}"] = record
    with open(out, "w") as fh:
        json.dump(dict(sorted(doc.items())), fh, indent=1)
        fh.write("\n")
    for name, e in metrics.items():
        print(f"{name:10s} parent {e['parent']['median']:.4g} [{e['parent']['q1']:.4g}, {e['parent']['q3']:.4g}]"
              f"  change {e['change']['median']:.4g} [{e['change']['q1']:.4g}, {e['change']['q3']:.4g}] {e['unit']}"
              f"  change wins {e['change_wins']}/{args.pairs}")
    same = prints["parent"] == prints["change"]
    print(f"fingerprints {'identical' if same else 'DIFFER'} across sides; wrote {out}")


if __name__ == "__main__":
    main()
