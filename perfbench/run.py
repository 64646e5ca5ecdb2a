#!/usr/bin/env python3
"""Benchmark of fair-biclique enumeration: three closed-loop workloads.

Builds the program and the benchmark from source (perfbench/build.sh) into
.bench_build/ on first use, then runs one workload in a JVM pinned to the
heap, garbage collector and Spark settings given on the command line.

One run, as BENCHMARK.json's command gives it:

    python3 perfbench/run.py --heap 3g --young 2g --gc ParallelGC --spark-master 'local[2]' \\
        --shuffle-partitions 2 --workload ssfbc-search --seed 1 --seconds 25 --trace 0

The last stdout line is {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer ones with --trace 1.

--steadiness N runs every workload (or --workload) in N separate JVMs with
seeds 1..N and prints the quartiles of each end-to-end metric, then runs the
traced mode twice on one seed and reports whether every count repeated.

--record prints each workload's result digest from its entry point and from
the independent reference algorithm, for Workloads.expected.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
CLASSES = os.path.join(WORK, "classes")
STAMP = os.path.join(WORK, "stamp")
WORKLOADS = ["ssfbc-search", "prune-select", "dist-ssfbc"]
RUN_TIMEOUT_S = 170

# Module opens that spark-submit would add; Spark's row encoders need them.
OPENS = [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar",
]


def spark_jars():
    """The jars of the Spark distribution: $SPARK_HOME, else the pyspark package's."""
    home = os.environ.get("SPARK_HOME")
    if home:
        return os.path.join(home, "jars")
    try:
        import pyspark
    except ImportError:
        sys.exit("run.py: set SPARK_HOME to a Spark distribution")
    return os.path.join(os.path.dirname(pyspark.__file__), "jars")


def sources():
    files = [os.path.join(HERE, "build.sh")]
    for top in (os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def build():
    """Compiles unless the classes were built from the current sources."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        sys.exit("run.py: no program sources in src/main/scala")
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    digest = h.hexdigest()
    if os.path.exists(STAMP) and open(STAMP).read() == digest:
        return
    os.makedirs(WORK, exist_ok=True)
    if os.path.exists(STAMP):
        os.remove(STAMP)
    t0 = time.time()
    r = subprocess.run(["bash", os.path.join(HERE, "build.sh"), CLASSES, spark_jars()], stdout=sys.stderr)
    if r.returncode != 0:
        sys.exit("run.py: build failed")
    with open(STAMP, "w") as fh:
        fh.write(digest)
    print(f"# built in {time.time() - t0:.1f} s", file=sys.stderr)


def spark_master(requested):
    """local[k] with k capped at the number of processors."""
    k = int(requested[len("local["):-1])
    return f"local[{max(1, min(k, os.cpu_count() or 1))}]"


def java(env, bench_args):
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", f"-Xms{env.heap}", f"-Xmx{env.heap}", f"-Xmn{env.young}", f"-XX:+Use{env.gc}",
           "-XX:-UsePerfData",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.sql.warehouse.dir={os.path.join(WORK, 'warehouse')}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-Djdk.reflect.useDirectMethodHandle=false"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
    cmd += ["-cp", f"{CLASSES}{os.pathsep}{os.path.join(spark_jars(), '*')}", "perfbench.Bench",
            "--spark-master", spark_master(env.spark_master),
            "--shuffle-partitions", str(env.shuffle_partitions), "--work-dir", WORK] + bench_args
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"run.py: the benchmark JVM ran longer than {RUN_TIMEOUT_S} s")
    return proc.returncode, out


def run_once(env, workload, seed, seconds, trace):
    """One run; returns (stdout lines, parsed result)."""
    code, out = java(env, ["--mode", "run", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)])
    lines = out.rstrip("\n").split("\n")
    if code != 0:
        sys.stdout.write(out)
        sys.exit(f"run.py: the benchmark JVM exited with code {code}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("run.py: malformed result line")
    return lines, result


def steadiness(env, workloads, runs, seconds):
    bounds = {}
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.exists(bench_json):
        bounds = {m["name"]: m["bound"] for m in json.load(open(bench_json))["end_to_end"]}
    report = {}
    for w in workloads:
        values, walls = {}, []
        for seed in range(1, runs + 1):
            t0 = time.time()
            _, r = run_once(env, w, seed, seconds, 0)
            walls.append(time.time() - t0)
            if not r["correct"]:
                print(f"# {w} seed {seed}: {r['failed']} of {r['attempted']} operations failed")
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        metrics = {}
        for name, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            metrics[name] = {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med,
                             "bound": bounds.get(name), "values": vs}
            print(f"# {w:13s} {name:13s} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {(q3 - q1) / med:6.3f}  bound {bounds.get(name)}")
        counts = []
        for _ in range(2):
            _, r = run_once(env, w, 1, seconds, 1)
            counts.append({n: m["value"] for n, m in r["metrics"].items() if m["unit"] == "count"})
        repeated = counts[0] == counts[1]
        print(f"# {w}: per-layer counts repeated exactly over two traced runs: {repeated}; "
              f"wall per run {min(walls):.1f}-{max(walls):.1f} s")
        report[w] = {"metrics": metrics, "counts_repeated": repeated, "run_wall_s": walls}
    print(json.dumps(report))


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--heap", required=True, help="JVM heap, set as both -Xms and -Xmx")
    ap.add_argument("--young", required=True, help="young generation size, as in -Xmn")
    ap.add_argument("--gc", required=True, help="garbage collector, as in -XX:+Use<gc>")
    ap.add_argument("--spark-master", required=True, help="local[k]; k is capped at the processor count")
    ap.add_argument("--shuffle-partitions", required=True, type=int)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steadiness", type=int, metavar="N")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if not args.spark_master.startswith("local["):
        sys.exit("run.py: --spark-master must be local[k]")

    build()
    workloads = [args.workload] if args.workload else WORKLOADS
    if args.record:
        code, out = java(args, ["--mode", "record", "--seed", str(args.seed)] +
                         (["--workload", args.workload] if args.workload else []))
        sys.stdout.write(out)
        sys.exit(code)
    if args.steadiness:
        steadiness(args, workloads, args.steadiness, args.seconds)
        return
    if not args.workload:
        sys.exit("run.py: --workload is required")
    lines, _ = run_once(args, args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
