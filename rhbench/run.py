#!/usr/bin/env python3
"""Build and run the rhtm benchmark.

Run from the root of a source checkout:

    python3 rhbench/run.py --workload kv_service --seed 7 --seconds 10 --trace 0
    python3 rhbench/run.py                # every workload, untraced then traced

The first run configures and builds rhbench/ (CMake, Release) into
$CARGO_TARGET_DIR/rhbench, default .bench_build/rhbench. Later runs rebuild
only what changed. With one --workload the last stdout line is that run's
JSON result; with --workload all (the default) each workload's result
lines are followed by one JSON summary line. Exit status: 0 after a
result, 2 when the build fails, 1 when the benchmark itself fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["rbtree_fastpath", "kv_service", "kv_durable"]
RUN_TIMEOUT_S = 170
SOURCE_DIRS = ["core", "stm", "workloads", "rhbench"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "rhbench")


def build(build_type="Release", out_dir=None):
    """Configures (once) and builds the benchmark; returns the binary path."""
    out_dir = out_dir or build_dir()
    log = sys.stderr
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "rhbench"), "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=" + build_type]
        if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", out_dir, "-j", "2"]
    if subprocess.run(cmd, stdout=log, stderr=log).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(out_dir, "rhbench")


def source_id():
    """The git commit when there is one, plus a digest of the sources built."""
    sha = "none"
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            sha = r.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for d in SOURCE_DIRS:
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, d))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "%s src-sha256:%s" % (sha, digest.hexdigest()[:16])


def run_one(binary, args, workload, trace, extra):
    """Runs the binary once, echoing its output; returns the parsed result."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--git-sha", args.source_id] + extra
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    sys.stderr.write(r.stderr)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        raise RuntimeError("%s exited %d" % (workload, r.returncode))
    for line in lines:
        print(line)
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="default: 0 for one workload; both for all")
    ap.add_argument("--drop-store-every", type=int, default=0,
                    help="oracle self-check: drop every K-th store")
    ap.add_argument("--closed-loop", action="store_true",
                    help="run kv_service closed-loop (capacity calibration)")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        print("rhbench: %s" % e, file=sys.stderr)
        return 2
    args.source_id = source_id()
    extra = []
    if args.drop_store_every:
        extra += ["--drop-store-every", str(args.drop_store_every)]
    if args.closed_loop:
        extra.append("--closed-loop")

    try:
        if args.workload != "all":
            run_one(binary, args, args.workload, args.trace or 0, extra)
            return 0
        traces = [0, 1] if args.trace is None else [args.trace]
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in WORKLOADS:
            for t in traces:
                print("=== %s trace=%d" % (w, t))
                res = run_one(binary, args, w, t, extra)
                summary["correct"] = summary["correct"] and res["correct"]
                summary["attempted"] += res["attempted"]
                summary["failed"] += res["failed"]
        print(json.dumps(summary))
    except (OSError, RuntimeError, ValueError) as e:
        print("rhbench: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
