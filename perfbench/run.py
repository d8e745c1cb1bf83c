#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root.  The benchmark is compiled from the
sources under src/ into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr.  The last line of
stdout is the benchmark's JSON result, and the exit code is non-zero when
the build fails or any correctness check does.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def build(targets):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no src/ next to perfbench/; run from a full checkout")
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = target.resolve() / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs, "--target", *targets],
                   stdout=sys.stderr, check=True)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests instead")
    args = parser.parse_args()
    try:
        if args.selftest:
            build_dir = build(["perfbench_test"])
            return subprocess.run([str(build_dir / "perfbench_test")]).returncode
        if not args.workload:
            parser.error("--workload is required")
        build_dir = build(["sfs_perfbench"])
    except subprocess.CalledProcessError as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    cmd = [str(build_dir / "sfs_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", args.trace]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
