#!/usr/bin/env python3
"""Build and run the SLFE benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run compiles the library sources
(src/main/scala) together with the benchmark driver (perfbench/src) with sbt,
offline, and records the runtime classpath; later runs reuse it until a source
file changes. The benchmark JVM's stdout ends with one JSON result line, which
this script prints last; everything else goes to stderr.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LIBRARY = os.path.join(ROOT, "src", "main", "scala")

# Driver heap: the graphs are small; build.sbt's 48g fallback is not.
HEAP = "2g"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Module access Spark needs on Java 17 (what spark-submit adds by itself).
JAVA_OPENS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + ["--add-opens=java.base/%s=ALL-UNNAMED" % p for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
    "sun.util.calendar")]

child = None


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def stop_child(signum, _frame):
    if child is not None and child.poll() is None:
        child.kill()  # sbt's launcher script execs its JVM: this stops a build too
        child.wait()
    sys.exit(128 + signum)


def run_child(cmd, timeout, **kw):
    """Run cmd to completion (killed after timeout s); returns (code, stdout)."""
    global child
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, **kw)
    try:
        out, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        die("%s timed out after %d s" % (cmd[0], timeout), 3)
    return child.returncode, out


def source_stamp():
    h = hashlib.sha256()
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for base in (LIBRARY, os.path.join(HERE, "src")):
        for d, dirs, names in os.walk(base):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile if any source changed since the last build; returns the classpath."""
    cp_file = os.path.join(HERE, "target", "classpath.txt")
    stamp_file = os.path.join(HERE, "target", "source-stamp")
    stamp = source_stamp()
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as fh2:
                    return fh2.read().strip()
    env = dict(os.environ, COURSIER_MODE="offline")
    if "SPARK_HOME" not in env:
        # A Spark distribution: bin/spark-submit next to jars/ (a pip-installed
        # pyspark's spark-submit on the PATH has no jars/ beside it).
        homes = [os.path.dirname(d) for d in env.get("PATH", "").split(os.pathsep)
                 if os.path.isfile(os.path.join(d, "spark-submit"))
                 and os.path.isdir(os.path.join(os.path.dirname(d), "jars"))]
        if not homes:
            die("set SPARK_HOME to a Spark distribution", 1)
        env["SPARK_HOME"] = homes[0]
    opts = ["-Dsbt.offline=true", "-Xmx2g"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.exists(repos):
        opts += ["-Dsbt.override.build.repos=true", "-Dsbt.repository.config=" + repos]
    env["SBT_OPTS"] = " ".join(opts)
    print("perfbench: compiling (sbt, offline)", file=sys.stderr)
    code, out = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "writeClasspath"],
                          BUILD_TIMEOUT_S, cwd=HERE, env=env, stdin=subprocess.DEVNULL)
    sys.stderr.write(out)
    if code != 0 or not os.path.exists(cp_file):
        die("build failed", 1)
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    with open(cp_file) as fh:
        return fh.read().strip()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    args = ap.parse_args()
    if not os.path.isdir(os.path.join(LIBRARY, "repro")):
        die("library sources not found under %s; run from a full checkout" % LIBRARY)
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, stop_child)

    classpath = build()
    out_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["java", "-Xms" + HEAP, "-Xmx" + HEAP, "-Djava.io.tmpdir=" + tmp] + JAVA_OPENS + [
        "-cp", classpath, "repro.perfbench.Main",
        "--workload", args.workload, "--seconds", repr(args.seconds),
        "--trace", args.trace, "--out", out_dir]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    code, out = run_child(cmd, RUN_TIMEOUT_S, cwd=ROOT, stdin=subprocess.DEVNULL)
    for d in (tmp, os.path.join(out_dir, "spark-local")):
        shutil.rmtree(d, ignore_errors=True)
    lines = out.splitlines()
    if code != 0 or not lines:
        die("benchmark exited with code %d" % code, 1)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("no result line: %r" % lines[-1], 1)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        die("malformed result: %s" % lines[-1], 1)
    sys.stderr.write("".join(l + "\n" for l in lines[:-1]))
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
