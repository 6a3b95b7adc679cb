#!/usr/bin/env python3
"""Runs one workload of the repository benchmark.

    python3 benchmark/run.py --workload serve-hot-q --seed 7 --seconds 10 --trace 0

Builds the harness (benchmark/CMakeLists.txt, which builds the nas library
from the checkout's src/) into .bench_build/benchmark on first use, then runs
it from the checkout root.  Build output goes to stderr; the harness prints
every metric as a "name value unit" line, and the last line of stdout is the
one-line JSON result.  The exit code is the harness's: 0 with a result, and
non-zero without one when the checkout or the build is incomplete.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "benchmark")
BUILD = os.path.join(ROOT, ".bench_build", "benchmark")
WORK = os.path.join(".bench_build", "work")
WORKLOADS = ("build-dense", "serve-hot-q", "serve-cold-batch")
# A run must end within 180 s; the build of a fresh checkout is not timed.
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "elkin_matar.hpp")):
        sys.exit("run.py: the nas sources (src/) are not in this checkout")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "--target", "nas_benchmark",
                    "--parallel", "4"], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "nas_benchmark")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"run.py: build failed: {e}")
    sys.stdout.flush()
    try:
        done = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", WORK],
            cwd=ROOT, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: {args.workload} did not finish within "
                 f"{RUN_TIMEOUT_S} s and was killed")
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
