#!/usr/bin/env python3
"""Builds the host-time benchmark program from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload spec-mix --seed 1 --seconds 10 --trace 0

Workloads: spec-mix, build-admit, serve-warm (see perfbench/README.md).
lfi-perfbench is built under .bench_build/perfbench with the repository's
default flags; build output goes to stderr so that the last line of stdout
is the result object.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "lfi-perfbench")
# Longer than any run takes (lfi-perfbench caps its measured time); a hung
# run is killed and reported as a failure.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds lfi-perfbench. Exits 2 when impossible."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("error: no LFI sources next to perfbench/ "
                         "(expected src/CMakeLists.txt)\n")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "lfi-perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            sys.stderr.write("error: build step failed: %s\n" % " ".join(cmd))
            sys.exit(2)


def run(args):
    """Runs lfi-perfbench, passing its stdout through. Returns its exit code.

    lfi-perfbench is killed and waited for if it overruns or if this script is
    terminated, so no process outlives the run.
    """
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        proc = subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("error: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["spec-mix", "build-admit", "serve-warm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one round (self-test)")
    a = ap.parse_args()
    build()
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    if a.smoke:
        args.append("--smoke")
    if a.trace:
        args += ["--spans-out", os.path.join(
            BUILD_DIR, "spans-%s-%d.jsonl" % (a.workload, a.seed))]
    sys.stdout.flush()
    sys.exit(run(args))


if __name__ == "__main__":
    main()
