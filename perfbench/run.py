#!/usr/bin/env python3
"""Build and run the simulator's end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper-matrix --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The benchmark is a C++ program (perfbench/src) compiled together with
the simulator sources in src/ into .bench_build/ at the repository
root. This script configures and builds it (incrementally after the
first run), then replaces itself with the benchmark binary, so the
whole measurement runs as one process. The binary prints one JSON
object as the last line of its standard output; see
perfbench/README.md for the workloads and metrics.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def build(target):
    """Configure and build @p target; exit 1 on failure."""
    try:
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
        subprocess.run(
            ["cmake", "--build", BUILD, "--target", target, "-j", "4"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.stderr.write(f"perfbench: build failed: {err}\n")
        sys.exit(1)
    return os.path.join(BUILD, target)


def main(argv):
    if "--selftest" in argv:
        exe = build("perfbench_selftest")
        args = [exe]
    else:
        exe = build("perfbench")
        args = [exe] + argv
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(exe, args)


if __name__ == "__main__":
    main(sys.argv[1:])
