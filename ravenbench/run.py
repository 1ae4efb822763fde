#!/usr/bin/env python3
"""Raven inference benchmark: build the checkout, run one workload, print the result.

    python3 ravenbench/run.py --workload scan_score --seed 1 --seconds 8 --trace 0

Run it from the root of a checkout. The first run compiles the program
(src/main/scala) and the harness (ravenbench/src) with sbt into
ravenbench/target and records the classpath under .bench_build/; later runs
start the JVM directly and rebuild only when a source file changed.

The harness runs one workload in its own JVM (so no model registry or session
cache is shared between workloads), prints a human-readable report, and the
last line of standard output is the JSON result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. Exits non-zero, without a result line, when the
program's sources are missing, the build fails, or the harness fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
PROGRAM_SRC = os.path.join(ROOT, "src", "main", "scala")
WORKLOADS = ("scan_score", "cohort_mix", "nn_pipeline")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "3g"

# Module access Spark needs on Java 17 (the list spark-submit passes).
JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
]


def fail(msg):
    print(f"ravenbench: {msg}", file=sys.stderr)
    sys.exit(1)


def source_files():
    roots = [PROGRAM_SRC, os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for root in roots:
        for d, _, names in os.walk(root):
            files.extend(os.path.join(d, n) for n in names if n.endswith(".scala"))
    return sorted(files)


def source_stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found (set SPARK_HOME)")
    return home


def classpath(env):
    """Classpath of the built harness; builds first when sources changed."""
    cp_file = os.path.join(BUILD_DIR, "classpath.txt")
    stamp_file = os.path.join(BUILD_DIR, "classpath.stamp")
    stamp = source_stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read().strip() == stamp:
                with open(cp_file) as fh:
                    return fh.read().strip()
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    # Offline, and with sbt's global state kept inside the checkout.
    env = dict(env, COURSIER_MODE=env.get("COURSIER_MODE", "offline"))
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dsbt.offline=true", f"-Dsbt.global.base={os.path.join(BUILD_DIR, 'sbt-global')}",
           "compile", "export Runtime/fullClasspath"]
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(cmd, cwd=HERE, env=env, stdout=subprocess.PIPE, stderr=log,
                                  stdin=subprocess.DEVNULL, text=True, timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"build timed out after {BUILD_TIMEOUT_S} s (log: {log_path})")
        log.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"build failed (log: {log_path})")
    lines = [l.strip() for l in proc.stdout.splitlines()
             if l.strip() and not l.startswith("[") and ".jar" in l]
    if not lines:
        fail(f"build printed no classpath (log: {log_path})")
    cp = lines[-1]
    with open(cp_file, "w") as fh:
        fh.write(cp)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    return cp


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(result, trace):
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness result has the wrong keys")
    want = declared_metrics(trace)
    got = result["metrics"]
    if sorted(got) != sorted(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"harness metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("no operation was attempted")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(PROGRAM_SRC):
        fail(f"program sources not found at {os.path.relpath(PROGRAM_SRC, os.getcwd())}")
    if not shutil.which("sbt"):
        fail("sbt not found on PATH")
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    cp = classpath(env)

    work = os.path.join(BUILD_DIR, "work", f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    java_home = os.environ.get("JAVA_HOME")
    java = os.path.join(java_home, "bin", "java") if java_home else "java"
    cmd = [java, f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={work}",
           "-Dspark.ui.enabled=false", "-Dspark.driver.host=127.0.0.1",
           *JAVA_MODULE_OPTS, "-cp", cp, "ravenbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
           "--out", os.path.join(BUILD_DIR, "traces")]
    log_path = os.path.join(BUILD_DIR, "logs", f"{args.workload}-{args.seed}-t{args.trace}.log")
    os.makedirs(os.path.dirname(log_path), exist_ok=True)
    result = None
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=log,
                                stdin=subprocess.DEVNULL, text=True)
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            fail(f"harness timed out after {RUN_TIMEOUT_S} s (log: {log_path})")
    for line in out.splitlines():
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if proc.returncode != 0 or result is None:
        fail(f"harness exited with code {proc.returncode} (log: {log_path})")
    shutil.rmtree(work, ignore_errors=True)
    check_result(result, args.trace)
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
