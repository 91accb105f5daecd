#!/usr/bin/env python3
"""Build and run one dmtbench workload from the root of a checkout.

    python3 dmtbench/run.py --workload detail_suite --seed 1 \
        --seconds 30 --trace 0

Builds the simulator and the dmtbench binary from this checkout's
sources (CMake, into $CARGO_TARGET_DIR or .bench_build), then runs the
binary once in a single process.  It checks every output and
prints, as its last line, one JSON object with "correct", "attempted",
"failed" and "metrics".  This script passes that through and exits
with the binary's status; a failed build exits non-zero without a
result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Each run stops well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def build(build_dir):
    """Configure and build the dmtbench binary; build output goes to stderr."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "Makefile")):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "dmtbench",
                    "-j", str(os.cpu_count() or 2)],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["detail_suite", "phase_whole", "serve_grid"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, "dmtbench")
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError) as e:
        print(f"dmtbench: build failed: {e}", file=sys.stderr)
        return 3

    scratch = os.path.join(build_dir, f"run-{os.getpid()}")
    cmd = [os.path.join(build_dir, "dmtbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("dmtbench: run timed out", file=sys.stderr)
        return 4
    finally:
        # Spans of a traced run stay for inspection; serve caches are
        # removed by the binary itself.
        if args.trace == "0":
            shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
