#!/usr/bin/env python3
"""Build the benchmark from source and run it once.

Run from the repository root:

    python3 perfbench/run.py --workload ingest-distinct --seed 1 --seconds 10 --trace 0

The Go build cache, temporary files, the binary and every file a run
writes stay under .bench_build/ in the repository root. The arguments
are passed to the benchmark unchanged; its exit code is returned.
`--workload all` runs every workload in turn with the same arguments
and fails if any run fails.
"""

import os
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORKLOADS = ["parse", "ingest-distinct", "ingest-repeat", "query-mixed"]


def main():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    build = os.path.join(root, ".bench_build")
    for sub in ("gocache", "gotmp", "gopath"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "gotmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    try:
        built = subprocess.run(
            ["go", "build", "-o", binary, "."],
            cwd=os.path.join(root, "perfbench"),
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    runs = [args]
    for i, a in enumerate(args[:-1]):
        if a in ("--workload", "-workload") and args[i + 1] == "all":
            runs = [args[:i + 1] + [w] + args[i + 2:] for w in WORKLOADS]
    failed = 0
    for run_args in runs:
        try:
            ran = subprocess.run([binary] + run_args, cwd=root, env=env, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print("perfbench: run timed out", file=sys.stderr)
            return 1
        if ran.returncode != 0:
            failed = ran.returncode
    return failed


if __name__ == "__main__":
    sys.exit(main())
