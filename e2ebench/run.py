#!/usr/bin/env python3
"""Build and run the loopback end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload warm_hits --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. On first use it builds e2ebench/
(which compiles the program's sources under src/) with CMake into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench; later runs only
check that build. It then runs the benchmark binary and passes its output
through: the last line of standard output is the result object. Without
the program's sources it exits non-zero and prints no result.
"""

import argparse
import fcntl
import os
import subprocess
import sys

WORKLOADS = ("warm_hits", "cold_misses", "churn")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def configured_for(build_dir):
    """The source directory build_dir's CMake cache was made for, or None."""
    try:
        with open(os.path.join(build_dir, "CMakeCache.txt")) as cache:
            for line in cache:
                if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return None


def build(bench_dir, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        configured = configured_for(build_dir)
        if configured is None or os.path.realpath(configured) != os.path.realpath(bench_dir):
            # Missing, or left by a checkout elsewhere: configure afresh.
            cache = os.path.join(build_dir, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-8000:])
                fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds within 1..120")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "core", "dfi_system.h")):
        fail("the program's sources (src/) are not in this checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "e2ebench")
    build(bench_dir, build_dir)

    workdir = os.path.join(build_dir, "run")
    os.makedirs(workdir, exist_ok=True)
    command = [os.path.join(build_dir, "e2e_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--workdir", workdir]
    try:
        done = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s", code=3)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-8000:])
        fail(f"benchmark exited with status {done.returncode}", code=done.returncode)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
