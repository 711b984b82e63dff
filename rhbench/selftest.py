#!/usr/bin/env python3
"""Self-checks of the rhtm benchmark. Run from the root of a source checkout:

    python3 rhbench/selftest.py [--binary PATH] [--seconds S]

For every workload it checks that
  * a clean run is correct, reconciles, and prints exactly the metric names
    BENCHMARK.json declares (end-to-end untraced, per-layer traced);
  * the workload stresses the layer it was chosen for (tier shares, pmem
    fences exactly 0 off the durable workload);
  * dropping every K-th store (--drop-store-every) makes the oracles fail,
    so no oracle passes vacuously.
Finally it checks that a Debug build refuses to report numbers.
Exit status 0 when every check passes.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

DROP_EVERY = 97


def run(binary, workload, seconds, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", str(seconds),
           "--trace", str(trace)] + list(extra)
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=bench.RUN_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), r.returncode, r.stderr))
    lines = r.stdout.splitlines()
    return json.loads(lines[-1]), lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary", help="prebuilt rhbench binary (default: build it)")
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    binary = args.binary or bench.build()
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: [m["name"] for m in spec["end_to_end"]],
             1: [m["name"] for m in spec["per_layer"]]}

    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what))
        if not ok:
            failures.append(what)

    for w in bench.WORKLOADS:
        for trace in (0, 1):
            res, lines = run(binary, w, args.seconds, trace)
            check(res["correct"] and res["failed"] == 0, "%s trace=%d correct" % (w, trace))
            check(any(l.startswith("reconcile PASS") for l in lines),
                  "%s trace=%d reconciles" % (w, trace))
            check(list(res["metrics"]) == names[trace],
                  "%s trace=%d prints the declared metrics" % (w, trace))
            if trace == 0:
                check(all(m["value"] > 0 for m in res["metrics"].values()),
                      "%s end-to-end metrics are nonzero" % w)
                continue
            m = {k: v["value"] for k, v in res["metrics"].items()}
            pmem = [m["pmem.pwb_per_commit"], m["pmem.pfence_per_commit"],
                    m["pmem.psync_per_commit"]]
            if w == "rbtree_fastpath":
                check(m["tm.share.rh1_fast"] >= 0.99, "%s rh1_fast share >= 0.99" % w)
            if w == "kv_service":
                check(m["tm.share.rh1_slow"] > 0, "%s rh1_slow share > 0" % w)
            if w == "kv_durable":
                check(all(v > 0 for v in pmem), "%s pmem fences per commit > 0" % w)
            else:
                check(all(v == 0 for v in pmem), "%s pmem fences exactly 0" % w)
        res, _ = run(binary, w, args.seconds, 0, ["--drop-store-every", str(DROP_EVERY)])
        check(not res["correct"] and res["failed"] > 0,
              "%s oracles catch every %dth store dropped" % (w, DROP_EVERY))

    debug = bench.build("Debug", bench.build_dir() + "-debug")
    r = subprocess.run([debug, "--workload", bench.WORKLOADS[0], "--seconds", "0.1"],
                       capture_output=True, text=True, timeout=60)
    check(r.returncode == 3 and "{" not in r.stdout, "a Debug build refuses to report")

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
