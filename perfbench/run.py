#!/usr/bin/env python3
"""Build and run Causeway's whole-path benchmark.

    python3 perfbench/run.py --workload live-app --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  The first run configures and builds
perfbench/ (a CMake project that compiles ../src) into .bench_build, or into
$CARGO_TARGET_DIR when that is set; later runs only rebuild what changed.
Build output goes to stderr, so the last line of stdout is always the
benchmark's result line.  Exits non-zero, without a result line, when the
sources are missing, the build fails or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                           os.path.join(ROOT, ".bench_build"))


def sh(cmd, timeout):
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                   check=True, timeout=timeout)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no Causeway sources next to perfbench/")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        sh(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
           BUILD_TIMEOUT_S)
    sh(["cmake", "--build", out, "-j", jobs, "--target", "perfbench",
        "perfbench_selftest"], BUILD_TIMEOUT_S)
    return out


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    every file under src/ (the checkout the benchmark runs in has no .git)."""
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--live-rate", type=float, default=1500)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        out = build()
    except (OSError, subprocess.SubprocessError) as e:
        sys.exit(f"perfbench: build failed: {e}")
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode)
    if not args.workload:
        parser.error("--workload is required")

    work = os.path.join(out, "work")
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--live-rate", repr(args.live_rate),
           "--work-dir", os.path.relpath(work, ROOT),
           "--spans-out", os.path.join(out, "spans",
                                       f"{args.workload}-seed{args.seed}.jsonl"),
           "--commit", source_id()]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {args.workload} exceeded {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
