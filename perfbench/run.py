#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 15 --trace 0

Workloads: cold_build, serve_mix, catalog_churn (see perfbench/map.json).
The first run configures and builds perfbench/ (the library included) in
RelWithDebInfo mode (the repository default) under .bench_build/; later
runs only rebuild what changed.
The benchmark's own output passes through unchanged: its last line is one
JSON object with "correct", "attempted", "failed" and "metrics". A traced
run (--trace 1) also writes its spans to .bench_build/traces/.

Extra flags for the self-test: --toy (tiny inputs) and --inject-wrong I
(corrupt the I-th checked answer).
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no src/ next to perfbench/: nothing to build")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))


def commit():
    """HEAD's commit when the checkout is a git work tree, else 'none'."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "none"


def source_digest():
    """SHA-256 over the library and benchmark sources, names included."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold_build", "serve_mix", "catalog_churn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true")
    parser.add_argument("--inject-wrong", type=int, default=-1)
    args = parser.parse_args()

    build()
    traces = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(traces, exist_ok=True)
    scale = "toy" if args.toy else "full"
    command = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--inject-wrong", str(args.inject_wrong),
        "--trace-out", os.path.join(
            traces, "%s-%s-%d.json" % (scale, args.workload, args.seed)),
        "--scratch-dir", os.path.join(
            ROOT, ".bench_build", "scratch-%d" % os.getpid()),
        "--expected", os.path.join(ROOT, "perfbench", "expected.json"),
        "--commit", commit(),
        "--source-digest", source_digest(),
    ]
    if args.toy:
        command.append("--toy")
    sys.stdout.flush()
    sys.exit(subprocess.run(command, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
