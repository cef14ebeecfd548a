#!/usr/bin/env python3
"""Builds and runs the Deep Sketch serving-path benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cold_wire --seed 1 --seconds 30 --trace 0

Workloads: cold_wire, cached_wire, template_batch (see perfbench/README.md),
or all to run the three in turn. --trace 0 measures the end-to-end metrics;
--trace 1 the per-layer ones.

The ds_perfbench binary is built from the checkout's own sources into
.bench_build/perfbench (configured once, then brought up to date on every
run). Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Exits non-zero when the sources are missing, the
build fails, or the run fails its output checks.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("cold_wire", "cached_wire", "template_batch")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def src_digest(root):
    """sha256 over the library sources and build files, in path order."""
    h = hashlib.sha256()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        paths.extend(os.path.join(base, f) for f in sorted(files))
    for path in paths:
        h.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "ds_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        fail("build failed")
    return os.path.join(build_dir, "ds_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, required)):
            fail(f"missing {required}: run from a full deepsketch checkout")

    binary = build(root)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    for workload in workloads:
        correct = run(binary, root, workload, args) and correct
    return 0 if correct else 1


def run(binary, root, workload, args):
    """Runs one workload, forwards its stdout, returns whether it was correct."""
    cmd = [binary, f"--workload={workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--git-sha={git_sha(root)}", f"--src-digest={src_digest(root)}"]
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"ds_perfbench exceeded {RUN_TIMEOUT_S} s on {workload}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"ds_perfbench exited with code {proc.returncode} on {workload}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"ds_perfbench printed no result line on {workload}")
    return proc.returncode == 0 and result["correct"]


if __name__ == "__main__":
    sys.exit(main())
