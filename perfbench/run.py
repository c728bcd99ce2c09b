#!/usr/bin/env python3
"""Repo benchmark entry point: builds the harness from source, runs one
workload, and relays its report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness is built with CMake from
perfbench/CMakeLists.txt (engine sources from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset. The last line of standard output is the harness's JSON result; build
logs go to standard error. The exit code is the harness's: nonzero on any
wrong result, failed self-check or build failure.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep_solo", "wire_overload", "hotspot_write")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(root, "perfbench"))


def build(out_dir):
    """Configures (once) and builds the harness; returns True on success."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out_dir, "-j4"])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                print(f"perfbench: build step failed: {' '.join(cmd)}",
                      file=sys.stderr)
                return False
    return True


def run_harness(out_dir, args):
    cmd = [os.path.join(out_dir, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: harness timed out", file=sys.stderr)
        return 1
    lines = stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        # No well-formed result: show what the harness said, print nothing
        # that could be mistaken for one.
        sys.stderr.write(stdout)
        print(f"perfbench: harness exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    return run_harness(out_dir, args)


if __name__ == "__main__":
    sys.exit(main())
