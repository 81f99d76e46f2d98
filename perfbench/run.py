#!/usr/bin/env python3
"""Builds and runs the repository benchmark (perfbench).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

--workload all runs every workload in turn and prints each one's report and
JSON line.

Run from the repository root. The first run configures and builds the
package in this directory (CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench,
or .bench_build/perfbench when that variable is unset; later runs rebuild
incrementally. The binary prints a human-readable report followed by one
JSON line; this script checks that line and prints it again as the last line
of its output. Traced runs (--trace 1) also run the decorator self-test, whose
failure marks the run incorrect. The exit code is non-zero on any failure.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
BUILD_LOG_TAIL = 40
WORKLOADS = ("shared_closed", "isolated_closed", "shared_ooc_queued")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = REPO_ROOT / base
    return base / "perfbench"


def run_logged(cmd, log):
    """Runs cmd with output appended to log; returns its exit code."""
    with open(log, "a") as out:
        out.write("$ " + " ".join(str(c) for c in cmd) + "\n")
        out.flush()
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode


def build(out_dir):
    if not (REPO_ROOT / "src" / "service" / "job_service.hpp").is_file():
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    out_dir.mkdir(parents=True, exist_ok=True)
    log = out_dir / "build.log"
    log.write_text("")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs])
    for step in steps:
        if run_logged(step, log) != 0:
            tail = log.read_text().splitlines()[-BUILD_LOG_TAIL:]
            print("\n".join(tail), file=sys.stderr)
            fail("build failed; full log in " + str(log), code=3)


def self_test(out_dir):
    result = subprocess.run([str(out_dir / "perfbench_tests"), str(out_dir / "selftest")],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if result.returncode != 0:
        print(result.stdout, file=sys.stderr)
    return result.returncode == 0


def run_workload(out_dir, args, workload):
    """Runs one workload; prints its report and JSON line; returns the exit code."""
    tests_ok = self_test(out_dir) if args.trace else True
    cmd = [str(out_dir / "perfbench"), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(out_dir / "work")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail(f"benchmark printed nothing (exit code {proc.returncode})")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(lines[-1])
        fail(f"benchmark's last line is not JSON (exit code {proc.returncode})")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("benchmark result has unexpected keys: " + ", ".join(sorted(result)))
    if not tests_ok:
        print("perfbench: decorator self-test failed", file=sys.stderr)
        result["correct"] = False
    print(json.dumps(result), flush=True)
    return 0 if proc.returncode == 0 and result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    out_dir = build_dir()
    build(out_dir)
    if args.workload != "all":
        return run_workload(out_dir, args, args.workload)
    code = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        code = max(code, run_workload(out_dir, args, workload))
    return code


if __name__ == "__main__":
    sys.exit(main())
