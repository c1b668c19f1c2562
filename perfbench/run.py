#!/usr/bin/env python3
"""Benchmark of record: build, self-test, then run one workload.

    python3 perfbench/run.py --workload saturated --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Builds the repository and the benchmark
from source into $CARGO_TARGET_DIR (default .bench_build), runs the
statistics self-test, then replaces itself with the perfbench binary, whose
last stdout line is the JSON result. Exits non-zero, printing no result,
when the build or the self-test fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("saturated", "sharded_q8")


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configured = any(os.path.exists(os.path.join(build_dir, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
                        *generator], check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "perfbench",
                    "perfbench_selftest", "serve_daemon"], check=True, stdout=sys.stderr)


def revision():
    """The git commit of the checkout, or 'unknown' outside a git checkout."""
    try:
        # The ceiling keeps git from reporting a repository above ROOT.
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, check=True, env=env).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        log(f"build failed: {error}")
        return 2
    selftest = os.path.join(build_dir, "perfbench_selftest")
    if subprocess.run([selftest], stdout=sys.stderr).returncode != 0:
        log("statistics self-test failed")
        return 3
    bench = os.path.join(build_dir, "perfbench")
    # perfbench's flag parser reads a leading '-' as a flag: keep seeds
    # non-negative (a fixed mapping, so a seed still fixes the inputs).
    seed = args.seed & (2**63 - 1)
    argv = [bench, "--workload", args.workload, "--seed", str(seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--daemon", os.path.join(build_dir, "ensembler", "serve_daemon"),
            "--workdir", os.path.join(build_dir, "perfbench_runs"),
            "--revision", revision()]
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(bench, argv)


if __name__ == "__main__":
    sys.exit(main())
