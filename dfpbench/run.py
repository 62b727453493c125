#!/usr/bin/env python3
"""Builds the dfpbench binary from source and runs one workload.

    python3 dfpbench/run.py --workload <olap_warm|adhoc_cold|service_mix> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the repository root. The binary and the dfp library are built (Release) into
.bench_build/ on the first run and reused afterwards; build output goes to stderr. The last
line of stdout is the binary's JSON result. Deterministic figures of every run are recorded
under .bench_build/determinism/<source hash>/ and later runs of the same seed on the same
sources must reproduce them exactly.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def source_hash():
    """Hash of every file the binary is built from, so recorded figures follow the code."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), HERE):
        for directory, subdirs, files in os.walk(top):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("dfpbench: the dfp sources (src/) are not next to dfpbench/; nothing to build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    cache = os.path.join(BUILD, "CMakeCache.txt")
    configured = os.path.isfile(os.path.join(BUILD, "Makefile")) and os.path.isfile(cache)
    if configured:
        with open(cache) as handle:
            configured = "CMAKE_HOME_DIRECTORY:INTERNAL=%s\n" % HERE in handle.read()
    if not configured:
        # A cache left by another source tree would make cmake refuse to configure.
        if os.path.isfile(cache):
            os.remove(cache)
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "dfpbench", "-j", jobs])
    for step in steps:
        completed = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if completed.returncode != 0:
            sys.exit("dfpbench: build step failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["olap_warm", "adhoc_cold", "service_mix"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    state_dir = os.path.join(BUILD, "determinism", source_hash())
    command = [os.path.join(BUILD, "dfpbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--state-dir", state_dir]
    sys.stdout.flush()
    return subprocess.run(command, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
