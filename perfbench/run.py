#!/usr/bin/env python3
"""Build and run the SHIELD benchmark.

From the repository root:

    python3 perfbench/run.py --workload fill --seed 1 --seconds 10 --trace 0

Builds perfbench/ (a Go module over the repository's packages) into
.bench_build/ at the repository root, with the Go build cache kept there too,
then runs it with the given arguments from the repository root. The last line
of standard output is the benchmark's JSON result; the exit code is the
benchmark's. A failed build exits 2 without printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOTELEMETRY="off",
    )
    return env


def main():
    os.makedirs(BUILD, exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=go_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        sys.stderr.write(build.stdout.decode(errors="replace"))
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
