#!/usr/bin/env python3
"""The repository's benchmark: builds it from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py \
        --workload pdf-backtrack|binary-roundtrip|svc-stream \
        --seed N --seconds S --trace 0|1

The C++ program (perfbench/src, built by perfbench/CMakeLists.txt against the
repository's src/) generates every input from the seed, times the library's
public calls, checks every output, and prints the result JSON as its last
stdout line. Build products, generated-parser compiles and span files stay
under .bench_build/ in the checkout. Exits nonzero, without a result, when
the build fails or the run finds a wrong output.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"


def build(env):
    """Configure once, then an incremental build; logs go to stderr."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "ipgbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            return False
    return True


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    # Compiler temporaries and generated-parser builds stay in the checkout.
    tmp = BUILD_ROOT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not build(env):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [str(BUILD / "ipgbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace),
           "--corrupt-reference", str(a.corrupt_reference)]
    if a.trace:
        cmd += ["--spans",
                str(BUILD_ROOT / f"spans-{a.workload}-{a.seed}.json")]
    # The program's output passes straight through; its exit code is ours.
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
