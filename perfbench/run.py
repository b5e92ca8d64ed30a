#!/usr/bin/env python3
"""Koios query benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the benchmark and, through the
program's own build, the program from source (perfbench/build.sbt) when any
source changed since the last build, then runs one workload in a fresh JVM. The JVM prints a summary
and, as its last stdout line, the JSON result; build output goes to stderr.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGET = os.path.join(HERE, "target")
CLASSPATH = os.path.join(TARGET, "classpath.txt")
STAMP = os.path.join(TARGET, "build.stamp")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-XX:-UsePerfData"]


def source_files():
    """Every file the build reads from the checkout, in a stable order."""
    files = []
    for build in (ROOT, HERE):
        files.append(os.path.join(build, "build.sbt"))
        project = os.path.join(build, "project")
        files += [os.path.join(project, n) for n in sorted(os.listdir(project))
                  if os.path.isfile(os.path.join(project, n))]
    for top in (os.path.join(ROOT, "src", "main"), os.path.join(HERE, "src")):
        for d, dirs, names in os.walk(top):
            dirs.sort()
            files += [os.path.join(d, n) for n in sorted(names)]
    return files


def fingerprint():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def sbt_env():
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.isfile(repos):
        env["SBT_OPTS"] = ("-Dsbt.override.build.repos=true -Dsbt.repository.config=%s "
                           "-Dsbt.offline=true" % repos)
    return env


def build():
    """Compiles with sbt unless the stamp shows the sources are unchanged."""
    fp = fingerprint()
    if os.path.isfile(STAMP) and os.path.isfile(CLASSPATH):
        with open(STAMP) as fh:
            if fh.read().strip() == fp:
                return
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Djava.io.tmpdir=" + tmp, "writeClasspath"]
    print("[perfbench] building: " + " ".join(cmd), file=sys.stderr, flush=True)
    proc = subprocess.run(cmd, cwd=HERE, env=sbt_env(), stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0 or not os.path.isfile(CLASSPATH):
        sys.exit("perfbench: build failed (sbt exit code %d)" % proc.returncode)
    with open(STAMP, "w") as fh:
        fh.write(fp + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true",
                    help="tiny corpus and short windows (see smoke_test.py)")
    ap.add_argument("--fault", choices=["throw", "wrong"],
                    help="break every answer on purpose, so the result must read "
                         "correct: false (see smoke_test.py)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "build.sbt")) or \
            not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        sys.exit("perfbench: run from the root of a checkout of the program "
                 "(no build.sbt or src/main/scala next to perfbench/)")

    build()
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    tmp = os.path.join(TARGET, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = (["java"] + JVM_OPTS + ["-Djava.io.tmpdir=" + tmp, "-cp", cp, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--out", os.path.join(HERE, "out")] +
           (["--smoke"] if args.smoke else []) +
           (["--fault", args.fault] if args.fault else []))
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
