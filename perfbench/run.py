#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a checkout.

    python3 perfbench/run.py --workload live|backfill|query --seed N \
        --seconds S --trace 0|1

Builds the benchmark package (perfbench/Cargo.toml) in release mode into
$CARGO_TARGET_DIR (default .bench_build), runs the workload in a fresh
process with its stores under .bench_work/, removes them afterwards, and
passes the workload's output through: the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
Exits non-zero, without a result line, when the sources are missing, the
build fails, or the workload fails or runs past its time limit.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("live", "backfill", "query")
# The workload must finish well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170
# The first run in a checkout also builds; a cold build takes about a minute.
BUILD_TIMEOUT_S = 840
SOURCES = (
    "BENCHMARK.json",
    "Cargo.toml",
    "crates/core/Cargo.toml",
    "crates/meterdata/Cargo.toml",
    "perfbench/Cargo.toml",
    "perfbench/spec.json",
)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    missing = [s for s in SOURCES if not (ROOT / s).is_file()]
    if missing:
        print(f"perfbench: missing sources: {', '.join(missing)}", file=sys.stderr)
        return 2

    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(ROOT / "perfbench" / "Cargo.toml"),
        "--target-dir", str(target),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [
        str(target / "release" / "perfbench"),
        "--root", str(ROOT),
        "--work", str(work),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
