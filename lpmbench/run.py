#!/usr/bin/env python3
"""Builds and runs the LPM design-space exploration benchmark.

Run from the root of a checkout:

    python3 lpmbench/run.py --workload walk|nuca|screen --seed N \
        --seconds S --trace 0|1

It configures and builds lpmbench/ (which compiles the simulator from
src/) into the build directory, $CARGO_TARGET_DIR or .bench_build, then
runs lpm_bench with the same flags. The last line of standard output is
lpm_bench's JSON result; build output goes to standard error. See
lpmbench/README.md.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"lpmbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources (src/CMakeLists.txt) in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "lpm_bench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["walk", "nuca", "screen"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="engine workers (default: min(nproc, 4))")
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    build(build_dir)

    spans = os.path.join(build_dir, "spans",
                         f"{args.workload}-seed{args.seed}.jsonl")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    cmd = [
        os.path.join(build_dir, "lpm_bench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", os.path.join(build_dir, "run"),
        "--expected", os.path.join(HERE, "expected.tsv"),
        "--spans-out", spans,
    ]
    if args.threads > 0:
        cmd += ["--threads", str(args.threads)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"lpm_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
