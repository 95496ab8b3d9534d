#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload integrate|fuse|serve --seed N \
        --seconds S --trace 0|1

Configures perfbench/CMakeLists.txt (which builds the evident library from
the sources in this checkout) into .bench_build/, builds the benchmark
program, runs it, and passes its output through: notes first, then one
JSON result line. Build output goes to stderr. Exits non-zero, without a
result line, when the build or the run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORK_DIR = os.path.join(ROOT, ".bench_work")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                 BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        # A half-configured directory would keep failing; start clean.
        shutil.rmtree(BUILD_DIR, ignore_errors=True)
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return None
    step = ["cmake", "--build", BUILD_DIR, "--target", "evident_bench",
            "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(BUILD_DIR, "evident_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["integrate", "fuse", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", WORK_DIR,
               "--digests", os.path.join(ROOT, "perfbench", "digests.txt")]
    try:
        run = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                             stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if run.returncode != 0:
        print("perfbench: benchmark exited with %d" % run.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
