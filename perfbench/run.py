#!/usr/bin/env python3
"""Benchmark runner.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper_tables --seed 42 --seconds 14 --trace 0

It builds the program and the benchmark with sbt (once per source state; the
build is cached under perfbench/target), then runs one workload in a fresh
JVM. The JVM gets the program's own test JVM options and its SparkSession
comes from the program's shared factory, pinned to local[N] with N < nproc.
The last line of stdout is the JSON result; on any failure the runner prints
no result and exits non-zero.
"""
import argparse
import glob
import hashlib
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "target")
WORKLOADS = ("lake_scale", "direct_lake", "paper_tables")
# Spark's local[N]: N is pinned so that figures are comparable between machines
# and commits, and one core is left to the driver thread, GC and the OS, which
# keeps the run-to-run spread low on a 4-core machine.
MAX_CORES = 3
DRIVER_MEM = "3g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file whose change requires a rebuild."""
    patterns = [
        "build.sbt", "project/*.sbt", "project/*.scala", "project/build.properties",
        "src/main/**/*", "jobs/**/*", "src/test/scala/repro/SparkSpec.scala",
        "perfbench/build.sbt", "perfbench/project/build.properties", "perfbench/src/**/*",
    ]
    files = set()
    for p in patterns:
        files.update(f for f in glob.glob(os.path.join(ROOT, p), recursive=True) if os.path.isfile(f))
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def run_bounded(cmd, timeout, **kw):
    """Runs a command in its own process group and kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build(stamp):
    """Returns (classpath, java options), building when the sources changed."""
    cache = os.path.join(WORK, "build.txt")
    if os.path.exists(cache):
        with open(cache) as fh:
            lines = fh.read().splitlines()
        if len(lines) >= 2 and lines[0] == stamp:
            return lines[1], lines[2:]
    os.makedirs(WORK, exist_ok=True)
    for stale in (cache, os.path.join(WORK, "launch.txt")):
        if os.path.exists(stale):
            os.remove(stale)
    env = dict(os.environ, SPARK_DRIVER_MEM=DRIVER_MEM)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true -Xmx4g")
    cmd = ["sbt", "--batch", "--no-server", "--error", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={os.path.join(WORK, 'sbt-global')}", "launchFile"]
    log = os.path.join(WORK, "build.log")
    try:
        code, out = run_bounded(cmd, BUILD_TIMEOUT_S, cwd=HERE, env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    except subprocess.TimeoutExpired:
        fail(f"build timed out after {BUILD_TIMEOUT_S} s", 1)
    with open(log, "w") as fh:
        fh.write(out)
    launch = os.path.join(WORK, "launch.txt")
    if code != 0 or not os.path.exists(launch):
        sys.stderr.write(out[-4000:])
        fail(f"build failed (exit {code}); see {log}", 1)
    with open(launch) as fh:
        classpath, *java_opts = fh.read().splitlines()
    with open(cache, "w") as fh:
        fh.write("\n".join([stamp, classpath, *java_opts]) + "\n")
    return classpath, java_opts


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                           capture_output=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def launch(main_class, args, log_name):
    """Builds when the sources changed, then runs `main_class` with `args` in a
    fresh JVM on the benchmark's Spark environment. Returns its stdout; on
    failure prints its log and exits non-zero.
    """
    for need in ("build.sbt", "src/main/scala", "src/test/scala/repro/SparkSpec.scala"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"{need} not found: run from the root of a checkout of the program")

    stamp = source_hash()
    classpath, java_opts = build(stamp)

    cores = max(1, min(MAX_CORES, len(os.sched_getaffinity(0)) - 1))
    tmp = os.path.join(WORK, "tmp")
    local = os.path.join(WORK, "spark-local")
    os.makedirs(tmp, exist_ok=True)
    os.makedirs(local, exist_ok=True)
    env = dict(os.environ, SPARK_MASTER=f"local[{cores}]", SPARK_LOCAL_DIRS=local,
               SPARK_DRIVER_MEM=DRIVER_MEM)
    # The program's own default decides shuffle partitions.
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    cmd = ["java", *java_opts, f"-Djava.io.tmpdir={tmp}",
           f"-Dperfbench.commit={git_commit()}", f"-Dperfbench.source={stamp}",
           "-cp", classpath, main_class, *args]
    log = os.path.join(WORK, f"run-{log_name}.log")
    try:
        with open(log, "w") as err:
            code, out = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT, env=env, text=True,
                                    stdout=subprocess.PIPE, stderr=err)
    except subprocess.TimeoutExpired:
        fail(f"run timed out after {RUN_TIMEOUT_S} s; see {log}", 1)
    if code != 0:
        with open(log) as fh:
            sys.stderr.write(fh.read()[-6000:])
        sys.stderr.write(out[-2000:])
        fail(f"run failed (exit {code}); see {log}", 1)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--lake-docs", type=int, help="override every large lake's size")
    a = ap.parse_args()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace), "--out", WORK]
    if a.lake_docs:
        args += ["--lake-docs", str(a.lake_docs)]
    sys.stdout.write(launch("perfbench.Main", args, a.workload))


if __name__ == "__main__":
    main()
