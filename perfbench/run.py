#!/usr/bin/env python3
"""Build and run the facade benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload refactor|churn|restart --seed N \
        --seconds S --trace 0|1

Configures and builds perfbench/ (which builds the library from the
checkout's sources) under .bench_build/perfbench, runs facade_bench, and
passes its output through: the last line is the result object.
"""
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "perfbench-work")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd):
    """Run a build step; its output goes to stderr only on failure."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build step failed: " + " ".join(cmd))


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isfile(os.path.join(ROOT, "src", "api", "solver.h")):
        fail("run from the root of a source checkout (library sources not found)")
    run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", BUILD, "--target", "facade_bench", "-j",
               str(min(4, os.cpu_count() or 1))])
    cmd = [os.path.join(BUILD, "facade_bench")] + sys.argv[1:] + \
        ["--work-dir", WORK, "--git-sha", git_sha()]
    proc = subprocess.run(cmd)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
