#!/usr/bin/env python3
"""Build the served-request benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload sec43-serve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 1

Each workload runs in a process of its own (so peak memory is per
workload).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics; with --workload all its
metric names are prefixed by the workload.  The exit code is non-zero
when the build fails or any served result is wrong or missing.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["sec43-serve", "plan-wide", "skew-adaptive"]
EXE = os.path.join("_build", "default", "perfbench", "main.exe")
RUN_TIMEOUT_S = 170


def build():
    # stdout carries the result line only; build chatter goes to stderr.
    return subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/main.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
    ).returncode == 0


def run_one(workload, args):
    cmd = [EXE, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None, 3
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return (lines, result), proc.returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = p.parse_args()

    if not build():
        print("build failed", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    outputs = []
    status = 0
    for w in workloads:
        out, code = run_one(w, args)
        if out is None or out[1] is None:
            print(f"{w}: no result", file=sys.stderr)
            return code or 4
        outputs.append((w, out))
        status = status or code

    if len(outputs) == 1:
        print("\n".join(outputs[0][1][0]))
    else:
        merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w, (lines, result) in outputs:
            print("\n".join(lines[:-1]))
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                merged["metrics"][f"{w}.{name}"] = m
        print(json.dumps(merged))
    return status


if __name__ == "__main__":
    sys.exit(main())
