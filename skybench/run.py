#!/usr/bin/env python3
"""Builds and runs the skydia benchmark (skybench).

Usage, from the root of a checkout:

    python3 skybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds skybench/ (which compiles the library sources in
src/) into .bench_build/skybench, then runs the binary and passes its
output through: the last line of stdout is the JSON result. The exit status
is the binary's (1 on a wrong answer). Without the sources, or when the
build fails, it exits non-zero without printing a result.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(os.getcwd(), ".bench_build", "skybench")


def source_digest():
    """SHA-256 over the library sources, in path order."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def commit():
    """HEAD of the checkout when it is itself a git work tree, else unknown."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def build():
    """Configures and builds the benchmark binary; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("skybench: no skydia sources next to the benchmark",
              file=sys.stderr)
        return None
    os.makedirs(BUILD_DIR, exist_ok=True)
    configure = [
        "cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release",
        "-DSKYBENCH_COMMIT=" + commit(),
        "-DSKYBENCH_SOURCE_DIGEST=" + source_digest(),
    ]
    for cmd in (configure,
                ["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
                 "skybench"]):
        # Build output goes to stderr so stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("skybench: build failed", file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "skybench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    binary = build()
    if binary is None:
        return 2
    sys.stdout.flush()
    proc = subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace)
    ])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
