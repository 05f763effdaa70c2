#!/usr/bin/env python3
"""Build the simulator and the edgebench binary from source, then run it.

Usage, from the repository root:

    python3 edgebench/run.py --workload solo-datasets --seed 1 \
        --seconds 30 --trace 0

--workload all runs the three workloads in turn (one result line each) and
exits non-zero if any of them does.

The build goes to $CARGO_TARGET_DIR/edgebench (default .bench_build), the
traced run's host trace to .../edgebench-out. Build output goes to stderr,
so the last line of stdout is the binary's result JSON. Exits non-zero,
without a result, when the simulator sources are not beside this directory
or the build fails.
"""

import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
WORKLOADS = ["solo-datasets", "fleet-8", "stress-outage"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("edgebench: no simulator sources under %s/src" % root,
              file=sys.stderr)
        return 2

    build_root = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(build_root, "edgebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", bench_dir, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", build_dir, "--target", "edgebench",
                 "-j", jobs]):
        # Build logs go to stderr: stdout carries only the binary's output.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("edgebench: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    status = 0
    for workload in workloads:
        cmd = [os.path.join(build_dir, "edgebench"),
               "--workload", workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--out-dir", os.path.join(build_root, "edgebench-out")]
        sys.stdout.flush()
        try:
            code = subprocess.run(cmd, cwd=root,
                                  timeout=RUN_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            print("edgebench: run exceeded %d s" % RUN_TIMEOUT_S,
                  file=sys.stderr)
            code = 1
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
