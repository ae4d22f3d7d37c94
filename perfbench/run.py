#!/usr/bin/env python3
"""Builds the benchmark from the checked-out sources and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload round-8k|attack-grid|week-timeline \
        [--seed N] [--seconds S] [--trace 0|1] [--smoke]

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
repository root and is incremental, so only the first run pays for it. Build
output and progress go to stderr; the last line on stdout is the benchmark's
JSON result. The exit code is the benchmark's (0 iff every check passed), or 1
when the build fails, in which case nothing is printed on stdout.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Configures and builds perfbench; returns the binary's path or None."""
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    steps = []
    configured = any(os.path.exists(os.path.join(build_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-20000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(step))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken workloads, for the benchmark's own tests")
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--reference", os.path.join(HERE, "reference.txt")]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
