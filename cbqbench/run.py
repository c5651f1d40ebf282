#!/usr/bin/env python3
"""Builds the cbqbench program from source and runs one workload.

Usage, from the root of the repository:

    python3 cbqbench/run.py --workload deep-seq --seed 1 --seconds 45 --trace 0

The program is built (Release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset; the first run configures and compiles the cbq library and the
program, later runs only check that the build is current. Build output goes
to stderr, so the program's last stdout line, one JSON object, stays the last
line of this script's stdout. Exit code: the program's (0 on success, 1 on a
wrong verdict or a counterexample that does not replay), or 1 when the build
fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    for cmd in (configure,
                ["cmake", "--build", build_dir, "--target", "cbqbench",
                 "--parallel", "4"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.stderr.write("cbqbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        return 1
    program = os.path.join(build_dir, "cbqbench")
    workdir = os.path.join(build_dir, "work", args.workload)
    sys.stdout.flush()
    return subprocess.run([program, "run", "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", repr(args.seconds),
                           "--trace", args.trace,
                           "--workdir", workdir]).returncode


if __name__ == "__main__":
    sys.exit(main())
