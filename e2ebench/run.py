#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (see README.md).

Run from the repository root:

    python3 e2ebench/run.py                      # all three workloads
    python3 e2ebench/run.py --workload mc-commerce-wap --seed 2003 \
        --seconds 10 --trace 0

The default seed is 2003; later claims must also hold on the held-out seed
7919. The first run configures and builds the src/ libraries and the benchmark
binary (Release) under .bench_build/e2ebench; later runs only re-check the
build. Build output goes to stderr, so the last stdout line of a
single-workload run is its JSON result.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ["mc-commerce-wap", "mc-consumer-imode", "ec-commerce"]
DEFAULT_SEED = 2003

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2e")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no src/ tree next to e2ebench/; run from a "
                 "checkout of the repository")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "e2e", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all three)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build()
    rc = 0
    for name in [args.workload] if args.workload else WORKLOADS:
        sys.stdout.flush()
        rc |= subprocess.run(
            [BINARY, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
        ).returncode
    return 1 if rc else 0


if __name__ == "__main__":
    sys.exit(main())
