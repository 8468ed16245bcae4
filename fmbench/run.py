#!/usr/bin/env python3
"""Builds and runs the fastmon benchmark program (fmbench).

Run from the repository root:

    python3 fmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: flow_s9234, detect_s38417, campaign_s38417 (see
fmbench/README.md).  The first call configures and builds the library
and fmbench from source into .bench_build/fmbench (Release, Ninja
when available); later calls only bring that build up to date.  Build
output goes to stderr; fmbench's last line on stdout is the JSON
result, and the exit code is fmbench's.  A traced run (--trace 1)
also writes its spans to .bench_build/fmbench-trace-<workload>.json.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "fmbench")
WORKLOADS = ("flow_s9234", "detect_s38417", "campaign_s38417")


def build():
    """Configures (once) and builds fmbench; returns the executable path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("fmbench: no fastmon sources at %s" % os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--parallel", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "fmbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("fmbench: build failed: %s" % e)

    cmd = [exe, "--workload", args.workload, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            ROOT, ".bench_build", "fmbench-trace-%s.json" % args.workload)]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
