#!/usr/bin/env python3
"""Builds the CQMS daemon benchmark from source and runs one workload.

    python3 perfbench/run.py --workload explore_read --seed 1 --seconds 10 --trace 0

Run from the repository root. The package in this directory is configured
and built (Release) under .bench_build/perfbench on every call; an
up-to-date build costs about a second. The benchmark's output is passed
through: one line per metric, then a JSON result as the last line, whose
metric names and units must match BENCHMARK.json (end_to_end for
--trace 0, per_layer for --trace 1). Exits non-zero, without a result,
when the build fails or the result does not match BENCHMARK.json, and with
the benchmark's own non-zero code when a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "server", "server.h")):
        fail("CQMS sources (src/) not found next to perfbench/")
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", "4"],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so the result stays the last line
        # of stdout.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not a JSON result")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if sorted(got) != sorted(m["name"] for m in want):
        fail("result metrics differ from BENCHMARK.json")
    for m in want:
        if got[m["name"]]["unit"] != m["unit"]:
            fail("unit of %s differs from BENCHMARK.json" % m["name"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload " + args.workload)
    binary = build()

    work_dir = os.path.join(BUILD, "work")
    os.makedirs(work_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--work-dir", work_dir],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode not in (0, 1) or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail("benchmark exited with code %d" % proc.returncode)
    check_result(lines[-1], spec, args.trace)
    sys.stdout.write(proc.stdout)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
