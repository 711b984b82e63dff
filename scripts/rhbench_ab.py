#!/usr/bin/env python3
"""A/B two git revisions on rhbench workloads.

Exports each revision's tracked files into its own tree under a temporary
directory, builds rhbench there (rhbench/run.py, one build directory per
side), then, per workload, runs N pairs, alternating which side runs
first. Per end-to-end metric (BENCHMARK.json "end_to_end") it prints each
side's median and quartiles and how many pairs the second revision won,
ties counting for neither side. A gain is claimed only when that revision
wins at least nine tenths of the pairs and its median beats the base's by
more than the base's interquartile range.

Each metric also gets a no-regression verdict against its BENCHMARK.json
`bound` (a fraction of the base median):
    worse       the head median is worse than the base median by more
                than the bound;
    unresolved  the base IQR is wider than the bound, unless every head
                run beats every base run;
    ok          otherwise.
The failed-operation share (failed / attempted ops over all runs) is
`worse` whenever the head's is higher than the base's.

Usage:
    rhbench_ab.py BASE_REV HEAD_REV [--workload kv_durable|a,b|all]
                  [--pairs 10] [--seed 7] [--seconds 6]
    rhbench_ab.py HEAD~1 "$(git stash create)"   # uncommitted tracked edits
    rhbench_ab.py --selftest

A revision is anything `git archive` accepts. Nothing in the checkout is
modified. Each run's metrics are printed as a "pair" line as it finishes,
with its highest per-round ops/s (round_peak_ops_s). A run that reports
incorrect results ends the comparison; when the redo log's overflow
oracle is its only failure, the error says a round outran rhbench's log
(a capacity limit of the benchmark, not a code fault).
Exit status: 0 after a report; 1 when a build or run fails or a run
reports incorrect results; 2 on a usage error or an unknown revision.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_FRACTION = 0.9
ROUND_RE = re.compile(r"round \d+ .*\bops/s=(\S+)")
CHECK_RE = re.compile(r"(?:oracle (\S+)|(reconcile))\s+FAIL\b")
LOG_ORACLE = "durable.log_not_overflowed"
# kv_durable's redo log holds 2^25 words and a transfer logs 8 of them, so a
# round (1 s measured after a 0.1 s warm-up) overflows it past about this rate.
LOG_LIMIT_OPS_S = 3.8e6


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


def verdict(base, head, better, bound):
    """No-regression verdict ("worse", "unresolved" or "ok") for one metric.

    `bound` is the largest tolerated worsening, as a fraction of base's
    median (see the module docstring).
    """
    sign = 1.0 if better == "higher" else -1.0
    bq, hq = quartiles(base), quartiles(head)
    scale = abs(bq[1])
    if sign * (bq[1] - hq[1]) > bound * scale:
        return "worse"
    head_dominates = all(sign * (h - b) > 0 for h in head for b in base)
    if bq[2] - bq[0] > bound * scale and not head_dominates:
        return "unresolved"
    return "ok"


def parse_workloads(spec, known):
    """The workload names a --workload value selects: a comma list or all."""
    if spec == "all":
        return list(known)
    names = [w for w in spec.split(",") if w]
    unknown = [w for w in names if w not in known]
    if not names or unknown:
        raise ValueError("unknown workload(s) %s; choose from %s or all"
                         % (",".join(unknown) or repr(spec), ",".join(known)))
    return names


def export_tree(rev, dest):
    """Writes the tracked files of `rev` into `dest` (git archive | tar)."""
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError("cannot export revision %r" % rev)


def run_side(tree, workload, args, names):
    """One rhbench run from `tree`; returns {metric name: value} for `names`
    plus the run's "attempted" and "failed" op counts."""
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = [sys.executable, os.path.join(tree, "rhbench", "run.py"),
           "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    r = subprocess.run(cmd, env=env, capture_output=True, text=True)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stderr)
        raise RuntimeError("%s exited %d" % (" ".join(cmd), r.returncode))
    res = json.loads(lines[-1])
    peak = round_peak(lines)
    if not res.get("correct"):
        sys.stderr.write(r.stdout)
        raise RuntimeError("%s reported incorrect results (round_peak_ops_s=%.6g)%s"
                           % (tree, peak, diagnose(lines, peak)))
    out = {n: res["metrics"][n]["value"] for n in names}
    out.update(attempted=res["attempted"], failed=res["failed"], round_peak_ops_s=peak)
    return out


def round_peak(lines):
    """The highest per-round ops/s of rhbench's `round N ... ops/s=X` lines."""
    return max((float(m.group(1)) for m in map(ROUND_RE.match, lines) if m), default=0.0)


def diagnose(lines, peak):
    """The known cause of an incorrect run, or "": a redo-log overflow is
    one when the log's oracle is the only failing check."""
    failing = [m.group(1) or m.group(2) for m in map(CHECK_RE.match, lines) if m]
    if failing != [LOG_ORACLE]:
        return ""
    return ("; only %s failed: a round outran rhbench's 2^25-word redo log, which"
            " holds ~%.2g ops/s per round (peak round %.3g ops/s). That is a"
            " capacity limit of the benchmark, not a code fault"
            % (LOG_ORACLE, LOG_LIMIT_OPS_S, peak))


def fail_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def report(workload, metrics, base_runs, head_runs, args):
    print("workload=%s seed=%d seconds=%g pairs=%d  base=%s head=%s"
          % (workload, args.seed, args.seconds, args.pairs, args.base, args.head))
    print("%-12s %-6s %31s %31s %8s %6s %-5s %s"
          % ("metric", "better", "base q1/median/q3", "head q1/median/q3",
             "delta", "wins", "claim", "verdict"))
    for m in metrics:
        name = m["name"]
        base = [r[name] for r in base_runs]
        head = [r[name] for r in head_runs]
        c = compare(base, head, m["better"])
        print("%-12s %-6s %31s %31s %+7.1f%% %3d/%-2d %-5s %s"
              % (name, m["better"], "/".join("%.4g" % v for v in c["base"]),
                 "/".join("%.4g" % v for v in c["head"]), 100 * c["delta_frac"],
                 c["wins"], c["pairs"], "yes" if c["claim"] else "no",
                 verdict(base, head, m["better"], m["bound"])))
    bf, hf = fail_share(base_runs), fail_share(head_runs)
    print("%-12s %-6s %31.4g %31.4g %8s %6s %-5s %s"
          % ("fail_share", "lower", bf, hf, "", "", "", "worse" if hf > bf else "ok"))
    print("%-12s %-6s %31.4g %31.4g  highest per-round ops/s of any run"
          % ("round_peak", "", max(r["round_peak_ops_s"] for r in base_runs),
             max(r["round_peak_ops_s"] for r in head_runs)))


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

    # Verdicts: a head median worse by more than the bound ...
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(steady, [70.0] * 5, "higher", 0.25) == "worse"
    assert verdict(steady, [130.0] * 5, "lower", 0.25) == "worse"
    # ... a worsening within the bound on a steady base ...
    assert verdict(steady, [90.0] * 5, "higher", 0.25) == "ok"
    assert verdict(steady, [120.0] * 5, "lower", 0.25) == "ok"
    # ... a base too noisy to judge (IQR 50% of the median) ...
    noisy = [50.0, 75.0, 100.0, 125.0, 150.0]
    assert verdict(noisy, [95.0, 100.0, 105.0, 98.0, 102.0], "higher", 0.25) == "unresolved"
    # ... unless every head run beats every base run.
    assert verdict(noisy, [151.0, 160.0, 170.0, 155.0, 152.0], "higher", 0.25) == "ok"
    assert verdict(noisy, [40.0, 45.0, 30.0, 49.0, 20.0], "lower", 0.25) == "ok"
    # A noisy base whose median the head misses by more than the bound.
    assert verdict(noisy, [60.0] * 5, "higher", 0.25) == "worse"
    assert fail_share([{"attempted": 10, "failed": 1}, {"attempted": 30, "failed": 1}]) == 0.05
    assert fail_share([]) == 0.0

    # Round lines and oracle verdicts as rhbench prints them.
    out = ["round 0 untraced setup=0.000061 s ops/s=2915342.5 p50=1.1 us p99=3.0 us (window medians)",
           "round 1 untraced setup=0.000070 s ops/s=3912004.0 p50=1.0 us p99=2.9 us (window medians)",
           "oracle durable.image_equals_live_balance         PASS (0 failed of 4096 checked)",
           "oracle durable.log_not_overflowed                FAIL (1 failed of 21 checked)",
           "reconcile PASS (ops == commits, pmem zero off-durable)"]
    assert round_peak(out) == 3912004.0
    assert round_peak(["no rounds"]) == 0.0
    assert "outran" in diagnose(out, round_peak(out))
    # Another failing check, or none, is not diagnosed.
    assert diagnose(out + ["oracle bank.conservation  FAIL (1 failed of 2 checked)"], 1.0) == ""
    assert diagnose(out[:-1] + ["reconcile FAIL (ops == commits)"], 1.0) == ""
    assert diagnose(out[:3], 1.0) == ""

    known = ["rbtree_fastpath", "kv_service", "kv_durable"]
    assert parse_workloads("all", known) == known
    assert parse_workloads("kv_durable", known) == ["kv_durable"]
    assert parse_workloads("kv_service,rbtree_fastpath", known) == [
        "kv_service", "rbtree_fastpath"]
    for bad in ["", "kv", "kv_durable,nope"]:
        try:
            parse_workloads(bad, known)
            raise AssertionError("workload spec %r accepted" % bad)
        except ValueError:
            pass
    print("selftest passed")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", nargs="?", help="base revision")
    ap.add_argument("head", nargs="?", help="revision under test")
    ap.add_argument("--workload", default="kv_durable",
                    help="a BENCHMARK.json workload, a comma list of them, or all")
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
        bench = json.load(f)
    metrics = bench["end_to_end"]
    names = [m["name"] for m in metrics]
    try:
        workloads = parse_workloads(args.workload, [w["name"] for w in bench["workloads"]])
    except ValueError as e:
        print("rhbench_ab: %s" % e, file=sys.stderr)
        return 2

    tmp = tempfile.mkdtemp(prefix="rhbench_ab.")
    try:
        trees = [os.path.join(tmp, "base"), os.path.join(tmp, "head")]
        try:
            for rev, tree in zip([args.base, args.head], trees):
                export_tree(rev, tree)
        except RuntimeError as e:
            print("rhbench_ab: %s" % e, file=sys.stderr)
            return 2
        for workload in workloads:
            runs = [[], []]
            try:
                for i in range(args.pairs):
                    order = [0, 1] if i % 2 == 0 else [1, 0]
                    for side in order:
                        runs[side].append(run_side(trees[side], workload, args, names))
                    for side, label in enumerate(["base", "head"]):
                        print("pair %s %d %s %s" % (workload, i + 1, label, " ".join(
                            "%s=%.6g" % (n, runs[side][-1][n])
                            for n in names + ["attempted", "failed", "round_peak_ops_s"])),
                              flush=True)
            except (OSError, RuntimeError, ValueError) as e:
                print("rhbench_ab: %s" % e, file=sys.stderr)
                return 1
            report(workload, metrics, runs[0], runs[1], args)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
