#!/usr/bin/env python3
"""Build and run the benchmark of record.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold-query --seed 1 --seconds 25 --trace 0

The Go build cache, the binary, scratch stores and traces all live under
.bench_build/ in the checkout, so the run reads and writes nothing outside
it. Every argument is passed to the benchmark binary (see main.go); the
binary's last line of output is the JSON result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# The benchmark bounds its own run; this only stops a hung one.
RUN_TIMEOUT_S = 175


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    try:
        run = subprocess.run(
            [binary, "--dir", BUILD] + sys.argv[1:],
            cwd=ROOT, env=env, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
