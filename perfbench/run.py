#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload retrain|optimize|spark_tpch \
        --seed N --seconds S --trace 0|1 [--tiny] [--fault]

Run from the root of a checkout. The first run builds the harness and the
program from source with sbt (perfbench/build.sbt); later runs reuse the
build while the sources are unchanged. The run itself is one JVM
(perfbench.Main) that prints its report as JSON; this script checks it,
keeps the determinism fingerprints of earlier runs in perfbench/target,
prints every metric with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones (a layer the workload never calls reports 0).
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TARGET = os.path.join(BENCH_DIR, "target")
CLASSPATH_FILE = os.path.join(TARGET, "perfbench-classpath.txt")
STAMP_FILE = os.path.join(TARGET, "perfbench-build.stamp")
STATE_FILE = os.path.join(TARGET, "perfbench-state.json")
WORKLOADS = ("retrain", "optimize", "spark_tpch")
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 101
HISTORY = 20

# Spark on JDK 17 needs the module system opened the way spark-submit does.
JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar", "java.security.jgss/sun.security.krb5",
]


# Spark's JVM compiles with C1 only. Under the default tiered compiler the
# C2 compiles of Spark's code took 77-87 s of compiler-thread CPU in one run,
# and CleoCatalyst.decide kept speeding up over five calls in one JVM (10.2 s
# down to 5.0 s), so its time depended on how far compilation had got.
WORKLOAD_JVM_FLAGS = {"spark_tpch": ["-XX:TieredStopAtLevel=1"]}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_stamp():
    """Hash of every input of the build: program sources and harness."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(BENCH_DIR, "src"),
             os.path.join(BENCH_DIR, "build.sbt"), os.path.join(BENCH_DIR, "project", "build.properties")]
    for r in roots:
        paths = [r] if os.path.isfile(r) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(r) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compiles with sbt unless an up-to-date build exists; returns (classpath, stamp)."""
    stamp = source_stamp()
    if os.path.exists(CLASSPATH_FILE) and os.path.exists(STAMP_FILE):
        with open(STAMP_FILE) as fh:
            if fh.read().strip() == stamp:
                with open(CLASSPATH_FILE) as fh:
                    return fh.read().strip(), stamp
    os.makedirs(TARGET, exist_ok=True)
    cmd = ["sbt", "--batch", "-J-XX:-UsePerfData", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={os.path.join(TARGET, 'sbt-global')}",
           "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    env = dict(os.environ)
    if "SPARK_HOME" not in env:
        homes = [os.path.dirname(os.path.realpath(d)) for d in env.get("PATH", "").split(os.pathsep)
                 if os.path.isfile(os.path.join(d, "spark-submit"))]
        homes = [h for h in homes if os.path.isdir(os.path.join(h, "jars"))]
        if not homes:
            fail("set SPARK_HOME to a Spark distribution (its jars/ are the program's Spark)")
        env["SPARK_HOME"] = homes[0]
    log = os.path.join(TARGET, "build.log")
    with open(log, "w") as out:
        rc = subprocess.run(cmd, cwd=BENCH_DIR, stdout=out, stderr=subprocess.STDOUT, env=env,
                            stdin=subprocess.DEVNULL).returncode
    with open(log) as fh:
        lines = fh.read().splitlines()
    classes = os.path.join(BENCH_DIR, "target", "scala-2.13", "classes")
    cp = [l.strip() for l in lines if l.strip().startswith(classes)]
    if rc != 0 or not cp:
        sys.stderr.write("\n".join(lines[-30:]) + "\n")
        fail(f"build failed (exit {rc}); see {log}")
    with open(CLASSPATH_FILE, "w") as fh:
        fh.write(cp[-1])
    with open(STAMP_FILE, "w") as fh:
        fh.write(stamp)
    return cp[-1], stamp


def cores():
    return max(1, min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()))


def run_jvm(classpath, args):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    n = cores()
    out_dir = os.path.join(TARGET, "out")
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [java, "-Xmx3g", f"-XX:ActiveProcessorCount={n}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}",
           "-Dspark.ui.enabled=false", "-Djdk.reflect.useDirectMethodHandleAccessor=false"]
    cmd += [f"--add-opens={p}=ALL-UNNAMED" for p in JVM_OPENS] + WORKLOAD_JVM_FLAGS.get(args.workload, [])
    cmd += ["-cp", classpath, "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out_dir]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--fault"] if args.fault else []
    log = os.path.join(out_dir, f"jvm-{args.workload}-{args.seed}-{args.trace}.log")
    os.makedirs(out_dir, exist_ok=True)
    with open(log, "w") as err:
        env = dict(os.environ, SPARK_LOCAL_DIRS=os.path.join(out_dir, "spark-local"), TMPDIR=tmp)
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=err, env=env,
                                stdin=subprocess.DEVNULL, text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"run exceeded {RUN_TIMEOUT_S} s; see {log}")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        fail(f"benchmark JVM exited with {proc.returncode}; see {log}")
    return json.loads(lines[-1])


def load_state():
    try:
        with open(STATE_FILE) as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {"fingerprints": {}, "choices": {}}


def save_state(state):
    with open(STATE_FILE, "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)


def choice_spread(history):
    """Median over queries of max/min of CLEO's chosen partition count across
    the last runs of this build."""
    per_query = {}
    for line in history:
        for item in line.split():
            q, cfg = item.split(":")
            per_query.setdefault(q, []).append(int(cfg.split("/")[1]))
    ratios = sorted(max(ps) / min(ps) for ps in per_query.values())
    if not ratios:
        return 1.0
    mid = len(ratios) // 2
    return ratios[mid] if len(ratios) % 2 else (ratios[mid - 1] + ratios[mid]) / 2


def parse_args(spec, argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs (smoke test)")
    ap.add_argument("--fault", action="store_true", help="feed one wrong value into a check")
    return ap.parse_args(argv)


def load_spec():
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("program sources (src/main/scala/repro) not found next to perfbench/")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            return json.load(fh)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def measure(args, spec):
    """One run: returns (result line, JVM report with every metric, failures)."""
    classpath, stamp = build()
    report = run_jvm(classpath, args)
    metrics = report["metrics"]
    attempted, failed = report["attempted"], report["failed"]
    failures = list(report["failures"])

    # Determinism across runs of one build: a seed must reproduce its fingerprints.
    state = load_state()
    key = f"{stamp[:16]}|{args.workload}|{args.seed}|{'tiny' if args.tiny else 'full'}"
    for name, digest in report["fingerprints"].items():
        attempted += 1
        seen = state["fingerprints"].setdefault(key, {}).setdefault(name, digest)
        if seen != digest:
            failed += 1
            failures.append(f"fingerprint {name} {digest} differs from an earlier run's {seen}")
    if "choices" in report["info"] and not args.tiny:
        history = state["choices"].setdefault(stamp[:16], [])
        history[:] = (history + [report["info"]["choices"]])[-HISTORY:]
        metrics["sparkint.partition_choice_spread"] = {"value": choice_spread(history), "unit": "ratio"}
    save_state(state)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out, missing = {}, []
    for m in wanted:
        if m["name"] in metrics:
            v = metrics[m["name"]]["value"]
            if metrics[m["name"]]["unit"] != m["unit"]:
                failures.append(f"{m['name']} reported in {metrics[m['name']]['unit']}, not {m['unit']}")
                missing.append(m["name"])
                continue
        elif args.trace:
            v = 0  # the workload never calls this layer
        else:
            missing.append(m["name"])
            continue
        if v is None or not math.isfinite(v):
            missing.append(m["name"])
            continue
        out[m["name"]] = {"value": v, "unit": m["unit"]}
    if missing:
        failures.append(f"metrics missing, mis-united or not finite: {', '.join(missing)}")
    result = {"correct": failed == 0 and not missing, "attempted": attempted, "failed": failed,
              "metrics": out}
    return result, report, failures


def main():
    spec = load_spec()
    args = parse_args(spec)
    result, report, failures = measure(args, spec)
    for name, m in sorted(report["metrics"].items()):
        print(f"{name:40s} {m['value']!s:>24} {m['unit']}")
    for k, v in report["info"].items():
        print(f"info.{k}: {v}")
    for k, v in report["fingerprints"].items():
        print(f"fingerprint.{k}: {v}")
    for f in failures:
        print(f"FAILED: {f}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
