#!/usr/bin/env python3
"""Build the perfbench harness from source, then run one workload.

Run from the root of a ptecps checkout:

    python3 perfbench/run.py --workload prove|sample|serve --seed N \
        --seconds S --trace 0|1

The harness and the ptecps library build into .bench_build/perfbench (the
first run compiles the library; later runs only check it is up to date).
Build output goes to stderr; the harness prints the result object as the
last line of stdout.  Exits 2 without a result when the checkout has no
sources to build.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
BUILD_TIMEOUT_S = 780


def build():
    """Configure once, then (re)build the harness target; True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {' '.join(cmd)}: {e}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd)} exited {done.returncode}", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["prove", "sample", "serve"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("--seed must be >= 0 and --seconds in (0, 60]")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print(f"perfbench: {ROOT} holds no ptecps sources to build", file=sys.stderr)
        return 2
    if not build():
        return 2

    cmd = [os.path.join(BUILD_DIR, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--docs", os.path.join(HERE, "scenarios"), "--work-dir", WORK_DIR]
    try:
        # A traced run measures for --seconds, then replays for at most
        # 10 s more; set-up takes a few seconds at most.
        return subprocess.run(cmd, timeout=args.seconds + 100).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: harness timed out", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
