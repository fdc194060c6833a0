#!/usr/bin/env python3
"""Entry point of the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload range-count --seed 1 --seconds 10 --trace 0

It builds perfbench from this checkout, generates the workload's seeded
inputs in one process and measures them in another, so input generation
is in neither set-up time nor peak memory. Everything it writes (Go build
cache, binary, inputs, data directories, traces) goes under .bench_build/
in the checkout. The last line of standard output is the result JSON.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build", "perfbench")

WORKLOADS = ("range-count", "ingest-serve", "sharded-count")
BUILD_TIMEOUT = 800  # the first build compiles the standard library
GEN_TIMEOUT = 60
RUN_TIMEOUT = 150


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def step(cmd, timeout, env, stdout):
    """Runs one child to completion; a timeout kills it and waits for it."""
    try:
        return subprocess.run(cmd, env=env, stdout=stdout, timeout=timeout, cwd=HERE).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {cmd[0]} timed out after {timeout}s", file=sys.stderr)
        return 124


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    os.makedirs(WORK, exist_ok=True)
    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(WORK, "gocache"),
               GOPATH=os.path.join(WORK, "gopath"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               GOTOOLCHAIN="local", GOFLAGS="", GOWORK="off", CGO_ENABLED="0")
    env.pop("GOMAXPROCS", None)  # perfbench sets GOMAXPROCS to the CPU count

    binary = os.path.join(WORK, "bin", "perfbench")
    rc = step(["go", "build", "-buildvcs=false", "-o", binary, "."], BUILD_TIMEOUT, env, sys.stderr)
    if rc != 0:
        return rc or 1

    inputs = os.path.join(WORK, "inputs", a.workload)
    run_dir = os.path.join(WORK, "run", a.workload)
    shutil.rmtree(inputs, ignore_errors=True)
    shutil.rmtree(run_dir, ignore_errors=True)
    common = ["-workload", a.workload, "-seed", str(a.seed), "-seconds", str(a.seconds)]
    rc = step([binary, "gen", *common, "-out", inputs], GEN_TIMEOUT, env, sys.stderr)
    if rc != 0:
        return rc
    sys.stdout.flush()
    return step([binary, "run", *common, "-trace", str(a.trace), "-inputs", inputs,
                 "-work", run_dir, "-commit", commit()], RUN_TIMEOUT, env, None)


if __name__ == "__main__":
    sys.exit(main())
