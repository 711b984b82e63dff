#!/usr/bin/env python3
"""A/B two git revisions on one rhbench workload.

Exports each revision's tracked files into its own tree under a temporary
directory, builds rhbench there (rhbench/run.py, one build directory per
side), then runs N pairs of the workload, alternating which side runs
first. Per end-to-end metric (BENCHMARK.json "end_to_end") it prints each
side's median and quartiles and how many pairs the second revision won,
ties counting for neither side. A gain is claimed only when that revision
wins at least nine tenths of the pairs and its median beats the base's by
more than the base's interquartile range.

Usage:
    rhbench_ab.py BASE_REV HEAD_REV [--workload kv_durable] [--pairs 10]
                  [--seed 7] [--seconds 6]
    rhbench_ab.py HEAD~1 "$(git stash create)"   # uncommitted tracked edits
    rhbench_ab.py --selftest

A revision is anything `git archive` accepts. Nothing in the checkout is
modified. Each run's metrics are printed as a "pair" line as it finishes.
Exit status: 0 after a report; 1 when a build or run fails or a run
reports incorrect results; 2 on a usage error or an unknown revision.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_FRACTION = 0.9


def quartiles(xs):
    """(q1, median, q3) by linear interpolation between order statistics."""
    s = sorted(xs)
    if not s:
        raise ValueError("no samples")

    def at(q):
        pos = q * (len(s) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(s) - 1)
        return s[lo] + (s[hi] - s[lo]) * (pos - lo)

    return at(0.25), at(0.5), at(0.75)


def compare(base, head, better):
    """Summary of paired samples base[i] vs head[i] for one metric.

    `better` is "higher" or "lower". `wins` counts the pairs where head
    beats base; `claim` holds when head wins at least WIN_FRACTION of the
    pairs and its median beats base's by more than base's IQR.
    """
    if len(base) != len(head):
        raise ValueError("unpaired samples")
    sign = 1.0 if better == "higher" else -1.0
    bq, hq = quartiles(base), quartiles(head)
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    losses = sum(1 for b, h in zip(base, head) if sign * (h - b) < 0)
    gain = sign * (hq[1] - bq[1])
    return {
        "base": bq,
        "head": hq,
        "wins": wins,
        "losses": losses,
        "pairs": len(base),
        "delta_frac": (hq[1] - bq[1]) / bq[1] if bq[1] else float("nan"),
        "claim": wins >= WIN_FRACTION * len(base) and gain > bq[2] - bq[0],
    }


def export_tree(rev, dest):
    """Writes the tracked files of `rev` into `dest` (git archive | tar)."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError("cannot export revision %r" % rev)


def run_side(tree, args, names):
    """One rhbench run from `tree`; returns {metric name: value} for `names`."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, os.path.join(tree, "rhbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    r = subprocess.run(cmd, env=env, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise RuntimeError("%s exited %d" % (" ".join(cmd), r.returncode))
    res = json.loads(lines[-1])
    if not res.get("correct"):
        sys.stderr.write(r.stdout)
        raise RuntimeError("%s reported incorrect results" % tree)
    return {n: res["metrics"][n]["value"] for n in names}


def report(metrics, base_runs, head_runs, args):
    print("workload=%s seed=%d seconds=%g pairs=%d  base=%s head=%s"
          % (args.workload, args.seed, args.seconds, args.pairs, args.base, args.head))
    print("%-12s %-6s %31s %31s %8s %6s %s"
          % ("metric", "better", "base q1/median/q3", "head q1/median/q3",
             "delta", "wins", "claim"))
    for m in metrics:
        name = m["name"]
        c = compare([r[name] for r in base_runs], [r[name] for r in head_runs],
                    m["better"])
        print("%-12s %-6s %31s %31s %+7.1f%% %3d/%-2d %s"
              % (name, m["better"], "/".join("%.4g" % v for v in c["base"]),
                 "/".join("%.4g" % v for v in c["head"]), 100 * c["delta_frac"],
                 c["wins"], c["pairs"], "yes" if c["claim"] else "no"))


def selftest():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([4, 1, 3, 2, 5]) == (2.0, 3.0, 4.0)
    q1, med, q3 = quartiles([1, 2, 3, 4])
    assert (q1, med, q3) == (1.75, 2.5, 3.25), (q1, med, q3)

    # Lower is better: head wins 9 of 10 and clears base's IQR -> claim.
    base = [10.0, 10.2, 10.4, 9.8, 10.1, 10.3, 9.9, 10.0, 10.2, 10.1]
    head = [7.0, 7.1, 6.9, 7.2, 7.0, 7.3, 6.8, 7.0, 10.5, 7.1]
    c = compare(base, head, "lower")
    assert c["wins"] == 9 and c["losses"] == 1 and c["claim"], c
    assert c["delta_frac"] < -0.25, c
    # The same samples read as higher-is-better: head loses, no claim.
    c = compare(base, head, "higher")
    assert c["wins"] == 1 and not c["claim"], c
    # Eight wins of ten is below nine tenths, however large the gain.
    c = compare(base, head[:8] + [11.0, 12.0], "lower")
    assert c["wins"] == 8 and not c["claim"], c
    # Ten narrow wins inside base's own spread: no claim.
    spread = [1.0, 3.0, 5.0, 7.0, 9.0, 2.0, 4.0, 6.0, 8.0, 10.0]
    c = compare(spread, [x - 0.5 for x in spread], "lower")
    assert c["wins"] == 10 and not c["claim"], c
    # Ties count for neither side.
    c = compare([1.0, 2.0], [1.0, 3.0], "higher")
    assert c["wins"] == 1 and c["losses"] == 0, c
    try:
        compare([1.0], [1.0, 2.0], "higher")
        raise AssertionError("unpaired samples accepted")
    except ValueError:
        pass
    print("selftest passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?", help="base revision")
    ap.add_argument("head", nargs="?", help="revision under test")
    ap.add_argument("--workload", default="kv_durable")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=6.0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.base or not args.head or args.pairs < 1:
        ap.print_usage(sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    names = [m["name"] for m in metrics]

    tmp = tempfile.mkdtemp(prefix="rhbench_ab.")
    try:
        trees = [os.path.join(tmp, "base"), os.path.join(tmp, "head")]
        try:
            for rev, tree in zip([args.base, args.head], trees):
                export_tree(rev, tree)
        except RuntimeError as e:
            print("rhbench_ab: %s" % e, file=sys.stderr)
            return 2
        runs = [[], []]
        try:
            for i in range(args.pairs):
                order = [0, 1] if i % 2 == 0 else [1, 0]
                for side in order:
                    runs[side].append(run_side(trees[side], args, names))
                for side, label in enumerate(["base", "head"]):
                    print("pair %d %s %s" % (i + 1, label, " ".join(
                        "%s=%.6g" % (n, runs[side][-1][n]) for n in names)), flush=True)
        except (OSError, RuntimeError, ValueError) as e:
            print("rhbench_ab: %s" % e, file=sys.stderr)
            return 1
        report(metrics, runs[0], runs[1], args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
