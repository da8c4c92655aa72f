#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload offline-direct --seed 1 --seconds 10 --trace 0

Builds `onesched-svc` (root package) and the benchmark package in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs one pass:
`--trace 0` runs the timed pass and prints the end-to-end metrics,
`--trace 1` runs the traced pass and prints the per-layer metrics. The
last line of stdout is the result object; the exit code is non-zero when
any correctness check failed or the build did not succeed.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("offline-direct", "offline-routed", "daemon-open")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    bench = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "Cargo.toml")) or not os.path.isdir(
        os.path.join(root, "crates")
    ):
        print("perfbench: run from the root of a full checkout", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(root, target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "onesched-svc"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(bench, "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        # build output goes to stderr: stdout carries only the result
        if subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2

    binary = "perfbench-traced" if args.trace else "perfbench"
    work = os.path.join(target, "perfbench-work", args.workload)
    run = subprocess.run(
        [
            os.path.join(target, "release", binary),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--svc", os.path.join(target, "release", "onesched-svc"),
            "--work", work,
        ],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=170,
    )
    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if run.returncode != 0 or not isinstance(result, dict) or not result.get("correct"):
        if lines:
            print(lines[-1], file=sys.stderr)
        print(f"perfbench: {args.workload} failed (exit {run.returncode})", file=sys.stderr)
        return run.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
