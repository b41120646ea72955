#!/usr/bin/env python3
"""Build the qfs benchmark and run one workload.

Run from the root of a qfs checkout:

    python3 perfbench/run.py --workload suite_cold --seed 2022 --seconds 10 --trace 0

The first run configures and builds perfbench/CMakeLists.txt (the qfs
libraries, qfsd and the qfs_perfbench harness) in Release mode under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
only check that the build is up to date. Build output goes to stderr. Then
the harness replaces this process, so its standard output (an output_digest
line, then the JSON result line) and its exit code are the run's. Workloads
and metrics are described in perfbench/workloads.json.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("suite_cold", "suite_warm", "daemon_open")


def build(source_dir, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr,
            check=True,
        )
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", "4", "--target", "qfsd", "qfs_perfbench"],
        stdout=sys.stderr,
        check=True,
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    source_dir = os.path.relpath(os.path.dirname(os.path.abspath(__file__)), root)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("run.py: no qfs sources here; run it from the root of a qfs checkout",
              file=sys.stderr)
        return 2

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_root = os.path.relpath(os.path.abspath(build_root), root)
    build_dir = os.path.join(build_root, "perfbench")
    try:
        build(source_dir, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 2

    span_dir = os.path.join(build_root, "perfbench-spans")
    os.makedirs(span_dir, exist_ok=True)
    command = [
        os.path.join(build_dir, "qfs_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--qfsd", os.path.join(build_dir, "qfsd"),
        # Relative, so the daemon's Unix socket path stays short.
        "--work-dir", os.path.join(build_root, f"perfbench-run-{os.getpid()}"),
        "--span-file", os.path.join(span_dir, f"{args.workload}-seed{args.seed}.json"),
    ]
    sys.stdout.flush()
    os.execv(command[0], command)


if __name__ == "__main__":
    sys.exit(main())
