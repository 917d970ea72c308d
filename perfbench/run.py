#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload scenario_mix --seed 1 \
        --seconds 10 --trace 0

The library and qs_perfbench are built (Release) into .bench_build/ on the
first run and incrementally after that; build output goes to stderr. The
program's provenance header and its closing JSON line go to stdout, so the
last line of stdout is the result. Exits non-zero, printing no result,
when the sources are missing, the build fails or the program fails.
"""
import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
BENCH_DIR = os.path.dirname(os.path.relpath(os.path.abspath(__file__)))
DRIVER = os.path.join(BUILD_DIR, "qs_perfbench")


def build():
    """Configures once, then builds qs_perfbench; returns False on failure."""
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        print("perfbench: run from the repository root (CMakeLists.txt and "
              "src/ not found)", file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "qs_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (self-test)")
    parser.add_argument("--corrupt", choices=("journal", "digest"),
                        help="inject a fault before the correctness check "
                             "(self-test)")
    args = parser.parse_args()
    if not build():
        return 2
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    # Replace this process with qs_perfbench: its exit code is the run's,
    # and no child outlives a caller that stops this process.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(DRIVER, cmd)


if __name__ == "__main__":
    sys.exit(main())
