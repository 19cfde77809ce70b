#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the mobiledl libraries from src/ plus the driver) into
.bench_build/perfbench; later runs only rebuild what changed. Build output
goes to stderr. Standard output carries the driver's figures, a provenance
line, with --trace 1 the per-layer report (report.py), and as its last line
one JSON result object. Exits non-zero, without a result line, when the
build or the run fails; exits 1 after the result line when an output check
failed.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "out")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(targets=("perfbench",)):
    """Configures (once) and builds `targets`; returns False on failure."""
    os.makedirs(BUILD_ROOT, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", *targets])
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step failed: {e}")
                return False
            if done.returncode != 0:
                log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
                return False
    return True


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 3
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR, "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 4
    lines = done.stdout.rstrip("\n").split("\n")
    result = lines[-1] if lines and lines[-1].startswith('{"correct"') else None
    if result is None or done.returncode not in (0, 1):
        sys.stdout.write(done.stdout)
        log(f"{args.workload} exited {done.returncode} without a result")
        return done.returncode or 5
    for line in lines[:-1]:
        print(line)
    if args.trace:
        sys.stdout.flush()
        subprocess.run([sys.executable, os.path.join(HERE, "report.py"),
                        os.path.join(OUT_DIR, args.workload + ".layers.json")],
                       stdout=sys.stdout, timeout=60)
    print(result, flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
