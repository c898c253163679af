#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <fm-n64|oracle-n128|chaos-net> \
        --seed N --seconds S --trace <0|1>

Configures perfbench/CMakeLists.txt (Release) into .bench_build at the root
of the checkout, builds it (a no-op once built), runs the benchmark binary
and passes its stdout through. The last stdout line is the JSON result.
Build output goes to stderr. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Run-time cap for one measurement, well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build(build_dir):
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    build_dir = os.path.join(ROOT, ".bench_build")
    try:
        if not build(build_dir):
            print("run.py: build failed", file=sys.stderr)
            return 1
    except OSError as e:  # cmake missing
        print(f"run.py: cannot build: {e}", file=sys.stderr)
        return 1

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"run.py: benchmark exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
