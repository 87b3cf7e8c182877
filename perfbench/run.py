#!/usr/bin/env python3
"""Builds the library and the perfbench binary from source, then runs one
benchmark workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); its log goes
to standard error so standard output ends with the binary's one-line JSON
record.  Exits nonzero, without a record, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cpd-enron", "serve-updates", "fleet-socket")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures and builds the binary; returns its path."""
    log = sys.stderr
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=log, stderr=log)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    out_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(out_root, "perfbench"))
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    work_dir = os.path.join(out_root, "work")
    os.makedirs(work_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", os.path.relpath(work_dir, ROOT)]
    # One malloc arena: with glibc's per-thread arenas, peak RSS jumps by
    # whole arenas from run to run, which would swamp rss_mb.
    env = dict(os.environ, MALLOC_ARENA_MAX="1")
    try:
        run = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                             timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except json.JSONDecodeError:
            record = None
    if record is None or set(record) != {"correct", "attempted", "failed",
                                         "metrics"}:
        sys.stdout.write(run.stdout)
        print(f"perfbench: {args.workload} printed no result record "
              f"(exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
