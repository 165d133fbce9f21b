#!/usr/bin/env python3
"""Builds the tuning benchmark from source and runs one workload.

    python3 tunebench/run.py --workload cold-jit-lu --seed 1 --seconds 15 --trace 0

Run from the repository root. The build goes to .bench_build/tunebench
(configured once, rebuilt incrementally on every run); compiler temporaries,
JIT caches and span files stay under .bench_build too. Build output goes to
stderr so that the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_BUILD = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BENCH_BUILD, "tunebench")
# Time a run may take beyond --seconds: set-ups (a cache pre-fill on the
# warm workload), self-tests, probes and re-timing of the chosen configs.
RUN_MARGIN_S = 150


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("tunebench: repository sources not found under " + ROOT,
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, env=env)
        if configure.returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(
        ["cmake", "--build", BUILD, "--target", "tunebench", "-j", jobs],
        stdout=sys.stderr, env=env)
    return made.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    env = dict(os.environ)
    tmp = os.path.join(BENCH_BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp  # cc and the workers write temporaries here
    env.pop("TVMBO_JIT_CACHE", None)  # every workload names its own cache
    env["TVMBO_WORKER_BIN"] = os.path.join(BUILD, "tvmbo_worker")
    if not build(env):
        return 1

    command = [os.path.join(BUILD, "tunebench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--work-root", BENCH_BUILD]
    timeout_s = args.seconds + RUN_MARGIN_S
    try:
        done = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print("tunebench: run exceeded %d s" % timeout_s, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
