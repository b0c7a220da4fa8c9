#!/usr/bin/env python3
"""Builds the sspar benchmark from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build (CMake, Release, fault points off)
goes to $CARGO_TARGET_DIR (default .bench_build) and is reused when nothing
changed. Scratch files and traces stay under that directory. The last line
of standard output is the result JSON; see perfbench/README.md.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    os.chdir(ROOT)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(build_root, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    for step in (
        ["cmake", "-S", "perfbench", "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "-j", jobs],
    ):
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
    binary = os.path.join(build, "perfbench")
    # Relative to the repository root, so the daemon's socket path stays
    # short however deep the checkout is.
    work = os.path.relpath(os.path.join(build_root, "work"))
    return subprocess.run([binary, *sys.argv[1:], "--work-dir", work]).returncode


if __name__ == "__main__":
    sys.exit(main())
