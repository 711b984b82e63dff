#!/usr/bin/env python3
"""Regression gate over two directories of BENCH_<scenario>.json reports.

Compares the *ratio of two series* (default: RH1-Fast / TL2) per
(scenario, table, x) between a baseline run and a fresh run, and fails when
the fresh ratio has regressed by more than --threshold (default 25%). The
gate is direction-aware: throughput-shaped primary metrics regress when the
ratio drops, latency-shaped ones (p50_us/p99_us/p999_us) when it rises.
Ratios between series measured in the same process are robust to runner
noise where absolute ops/sec are not — both series speed up or slow down
together on a cold/hot runner, their quotient does not (see
docs/BENCHMARKS.md, "Diffing two runs").

Usage:
    check_regression.py OLD_DIR NEW_DIR [--numerator RH1-Fast]
                        [--denominator TL2] [--threshold 0.25]
    check_regression.py --self-test

Exit status: 0 = no gated regression (including "nothing comparable", e.g.
the very first CI run has no baseline artifact); 1 = regression beyond the
threshold; 2 = usage error.
"""

import argparse
import glob
import io
import json
import os
import sys
import tempfile


def series_points(table, name):
    """{x: primary-metric value} for one named series of a table."""
    for series in table["series"]:
        if series["name"] == name:
            out = {}
            for point in series["points"]:
                value = point["metrics"].get(table["primary_metric"])
                if isinstance(value, (int, float)):
                    out[point["x"]] = float(value)
            return out
    return None


# The gate is direction-aware: a table's primary metric decides which way a
# ratio move counts as a regression. Throughput-shaped metrics regress when
# the ratio DROPS; latency-shaped metrics (the service scenario's open-loop
# tail percentiles) and cost-shaped metrics (the durable scenario's
# fences-per-commit persistence cost) regress when the ratio RISES — a
# cheaper RH1 tail or fence bill must never fail the gate. A primary metric
# in neither set has no known direction and its table is skipped, but
# VISIBLY (an info line per table), never silently.
GATED_HIGHER_IS_BETTER = {"total_ops", "ops_per_sec", "achieved_per_sec"}
GATED_LOWER_IS_BETTER = {
    "p50_us",
    "p90_us",
    "p99_us",
    "p999_us",
    "fences_per_commit",
    "wasted_speculation_pct",
    "cross_socket_penalty",
}


def metric_direction(metric):
    """'higher' / 'lower' for gateable metrics, None for unknown direction."""
    if metric in GATED_HIGHER_IS_BETTER:
        return "higher"
    if metric in GATED_LOWER_IS_BETTER:
        return "lower"
    return None


def ratios(report, numerator, denominator):
    """[(table-title, x, num/den, direction)] for every x where both series
    have data, over tables whose primary metric has a known direction."""
    out = []
    for table in report.get("tables", []):
        direction = metric_direction(table.get("primary_metric"))
        if direction is None:
            continue
        num = series_points(table, numerator)
        den = series_points(table, denominator)
        if num is None or den is None:
            continue
        for x in sorted(num.keys() & den.keys(), key=str):
            if den[x] > 0 and num[x] > 0:
                out.append((table["title"], x, num[x] / den[x], direction))
    return out


def gateable_titles(report):
    """Titles of the tables the gate would look at (known-direction metric)."""
    return {
        t["title"]
        for t in report.get("tables", [])
        if metric_direction(t.get("primary_metric")) is not None
    }


def compare(old_dir, new_dir, numerator, denominator, threshold, out=sys.stdout,
            summary=None):
    """Returns (compared, regressions): point counts across all reports.

    Reports or gateable tables present in only one of {baseline, current}
    are surfaced as explicit "new"/"removed" info lines — a new scenario is
    visibly ungated until its first baseline lands, it never silently
    dodges the gate; a vanished one is visible too.

    When `summary` is a dict it is filled in with the material for the
    one-line end verdict: "points" (gated point count), "tables" (the set of
    (report, table-title) pairs that contributed points) and "worst" — the
    single point whose ratio moved furthest in its table's BAD direction,
    as (severity, report, title, x, change) where severity > 1 means
    movement toward regression and the threshold trips at
    severity > 1/(1-threshold).
    """
    compared = 0
    regressions = []
    gated_tables = set()
    worst = None
    new_names = {
        os.path.basename(p) for p in glob.glob(os.path.join(new_dir, "BENCH_*.json"))
    }
    old_names = {
        os.path.basename(p) for p in glob.glob(os.path.join(old_dir, "BENCH_*.json"))
    }
    for name in sorted(old_names - new_names):
        print(f"  {name}: removed (present in baseline only, nothing to gate)", file=out)
    for name in sorted(new_names):
        new_path = os.path.join(new_dir, name)
        old_path = os.path.join(old_dir, name)
        if not os.path.exists(old_path):
            print(f"  {name}: new report (no baseline yet, ungated this run)", file=out)
            continue
        with open(old_path) as f:
            old_report = json.load(f)
        with open(new_path) as f:
            new_report = json.load(f)
        old_titles = gateable_titles(old_report)
        new_titles = gateable_titles(new_report)
        for t in new_report.get("tables", []):
            metric = t.get("primary_metric")
            if metric_direction(metric) is None:
                print(
                    f"  {name} | {t.get('title')}: primary metric '{metric}' "
                    f"has no gating direction; table not gated",
                    file=out,
                )
        for title in sorted(new_titles - old_titles):
            print(f"  {name} | {title}: new table (no baseline yet, ungated this run)",
                  file=out)
        for title in sorted(old_titles - new_titles):
            print(f"  {name} | {title}: table removed (present in baseline only)", file=out)
        old_ratios = {
            (t, x): r for t, x, r, _ in ratios(old_report, numerator, denominator)
        }
        new_keys = set()
        for title, x, new_ratio, direction in ratios(new_report, numerator, denominator):
            new_keys.add((title, x))
            old_ratio = old_ratios.get((title, x))
            if old_ratio is None:
                # Whole-table novelty is already reported above; only a point
                # missing from a table both runs share needs its own line.
                if title in old_titles:
                    print(
                        f"  {name} | {title} | x={x}: new point "
                        f"(no baseline ratio, ungated this run)",
                        file=out,
                    )
                continue
            if old_ratio <= 0:
                # ratios() only emits positive quotients today, but a skip
                # here must never be silent: a nonpositive baseline would
                # otherwise un-gate the point without a trace.
                print(
                    f"  {name} | {title} | x={x}: baseline ratio "
                    f"{old_ratio:.3f} <= 0 is not gateable; skipping",
                    file=out,
                )
                continue
            compared += 1
            gated_tables.add((name, title))
            change = new_ratio / old_ratio
            # Severity normalizes both directions onto one scale: > 1 means
            # the ratio moved toward regression, whichever way "bad" points
            # for this table. The single worst point feeds the end summary.
            severity = 1.0 / change if direction == "higher" else change
            if worst is None or severity > worst[0]:
                worst = (severity, name, title, x, change)
            # higher-is-better regresses when the ratio drops past the
            # threshold; lower-is-better (latency) when it rises past the
            # reciprocal bound, so the gate is symmetric either way.
            if direction == "higher":
                regressed = change < 1.0 - threshold
            else:
                regressed = change > 1.0 / (1.0 - threshold)
            marker = ""
            if regressed:
                marker = "  <-- REGRESSION"
                regressions.append((name, title, x, old_ratio, new_ratio, change))
            tag = "" if direction == "higher" else " [lower-is-better]"
            print(
                f"  {name} | {title} | x={x}: "
                f"{numerator}/{denominator} {old_ratio:.3f} -> {new_ratio:.3f} "
                f"({change:.2f}x){tag}{marker}",
                file=out,
            )
        # The symmetric direction: a point the baseline gated that the
        # current run no longer produces (trimmed sweep, series gone
        # nonpositive). Whole-table removals are already reported above.
        for title, x in sorted(old_ratios.keys() - new_keys, key=str):
            if title in new_titles:
                print(
                    f"  {name} | {title} | x={x}: point removed "
                    f"(present in baseline only, nothing to gate)",
                    file=out,
                )
    if summary is not None:
        summary["points"] = compared
        summary["tables"] = gated_tables
        summary["worst"] = worst
    return compared, regressions


def self_test():
    def sweep(title, metric, values, xs=(1, 2)):
        """A sweep table whose series `name` reports values[name] * x at each x."""
        return {
            "title": title,
            "style": "sweep",
            "x": "threads",
            "primary_metric": metric,
            "series": [
                {"name": name, "points": [{"x": x, "metrics": {metric: v * x}} for x in xs]}
                for name, v in values.items()
            ],
        }

    def fig1(rh1, tl2, ns_rh1=10, extra=None):
        """Figure 1 plus an ns_per_call table, which has no gating direction
        and must never be gated, whichever way its ratio moves."""
        tables = [
            sweep("Figure 1", "total_ops", {"RH1-Fast": rh1, "TL2": tl2}, (1, 2, 4)),
            sweep("latency table", "ns_per_call", {"RH1-Fast": ns_rh1, "TL2": 100}, (1, 2, 4)),
        ]
        if extra is not None:
            tables.append(sweep(extra, "ops_per_sec", {"RH1-Fast": 500, "TL2": 100}, (1, 2, 4)))
        return tables

    with tempfile.TemporaryDirectory() as tmp:

        def write(run, scenario, tables):
            os.makedirs(os.path.join(tmp, run), exist_ok=True)
            with open(os.path.join(tmp, run, f"BENCH_{scenario}.json"), "w") as f:
                json.dump({"schema": "rhtm-bench-report/v1", "scenario": scenario,
                           "substrate": "sim", "tables": tables}, f)

        def gate(old, new, num="RH1-Fast", den="TL2", summary=None):
            log = io.StringIO()
            compared, regressions = compare(os.path.join(tmp, old), os.path.join(tmp, new),
                                            num, den, 0.25, log, summary=summary)
            return compared, regressions, log.getvalue()

        # Baseline ratio 5.0; "ok" is globally 3x slower but keeps the ratio
        # (the robustness the gate relies on); "bad" halves it. Both swing
        # the ungated latency table's ratio wildly in both directions. A
        # missing baseline file is a skip, not a failure.
        write("old", "fig1_rbtree", fig1(500, 100, ns_rh1=100))
        write("ok", "fig1_rbtree", fig1(167, 33, ns_rh1=10))
        write("bad", "fig1_rbtree", fig1(250, 100, ns_rh1=1000))
        os.mkdir(os.path.join(tmp, "empty"))
        for old, new, want_compared, want_regressions in (
            ("old", "ok", 3, 0),
            ("old", "bad", 3, 3),
            ("empty", "ok", 0, 0),
        ):
            compared, regressions, _ = gate(old, new)
            assert (compared, len(regressions)) == (want_compared, want_regressions), (
                old, new, compared, regressions)

        # New / removed reports, tables and points (of a table both runs
        # share) surface as info lines and never as regressions: a scenario
        # present only in the current run is visibly ungated, one present
        # only in the baseline is visibly gone, and the unknown-direction
        # table is skipped visibly, never silently.
        write("old", "gone_scenario", fig1(500, 100))
        write("ok", "fresh_scenario", fig1(500, 100))
        write("ok", "fig1_rbtree", fig1(167, 33, extra="brand-new table"))
        write("old", "fig1_rbtree", fig1(500, 100, extra="retired table"))
        trimmed = fig1(500, 100)
        for series in trimmed[0]["series"]:
            series["points"] = [p for p in series["points"] if p["x"] != 4]
        write("sparse", "fig1_rbtree", trimmed)
        for old, new, want_compared, lines in (
            ("old", "ok", 3, ("BENCH_gone_scenario.json: removed",
                              "BENCH_fresh_scenario.json: new report",
                              "brand-new table: new table",
                              "retired table: table removed",
                              "'ns_per_call' has no gating direction")),
            ("sparse", "ok", 2, ("x=4: new point (no baseline ratio",)),
            ("old", "sparse", 2, ("x=4: point removed (present in baseline only",)),
        ):
            compared, regressions, text = gate(old, new)
            assert compared == want_compared and not regressions, (old, new, compared, regressions)
            for line in lines:
                assert line in text, text

        # Lower-is-better gating: each scenario whose gated metric is latency-
        # or cost-shaped, next to a higher-is-better rider table. The gated
        # ratio rising past the bound ("bad") must FAIL and blame only that
        # table; holding or falling must PASS. Per run:
        # ((gated numerator, denominator), (rider numerator, denominator)).
        families = (
            ("service", "RH1-Fast", "TL2", "p99_us", "achieved_per_sec", {
                "old": ((50, 100), (400, 100)),
                "ok": ((100, 200), (200, 50)),  # globally 2x slower, ratios kept
                "bad": ((100, 100), (400, 100)),  # RH1's tail doubled vs TL2
                # RH1's tail halved: an improvement, though a 0.5x change
                # would trip the throughput direction.
                "improved": ((25, 100), (400, 100)),
            }),
            # Baseline fence ratio 1.0 (the path-independent fence arithmetic).
            ("durable", "RH1-Fast", "TL2", "fences_per_commit", "total_ops", {
                "old": ((9, 9), (300, 100)),
                "ok": ((4.5, 9), (300, 100)),
                "bad": ((18, 9), (300, 100)),
            }),
            # Gated with the contention scenario's own pair, not RH1-Fast/TL2.
            ("contention", "RH1-Mix100/adaptive", "RH1-Mix100/fixed",
             "wasted_speculation_pct", "total_ops", {
                 "old": ((10, 20), (300, 100)),
                 "ok": ((5, 20), (300, 100)),
                 "bad": ((20, 20), (300, 100)),
             }),
            ("numa", "RH1-Fast", "TL2", "cross_socket_penalty", "total_ops", {
                "old": ((2, 2), (300, 100)),
                "ok": ((1, 2), (300, 100)),
                "bad": ((4, 2), (300, 100)),
            }),
        )
        for scenario, num, den, metric, rider, runs in families:
            for run, values in runs.items():
                write(f"{scenario}_{run}", scenario, [
                    sweep(f"{scenario} {m} table", m, {num: a, den: b})
                    for m, (a, b) in zip((metric, rider), values)
                ])
            for run in sorted(runs.keys() - {"old"}):
                compared, regressions, text = gate(f"{scenario}_old", f"{scenario}_{run}",
                                                   num, den)
                assert compared == 4, (scenario, run, compared)
                if run != "bad":
                    assert not regressions, (scenario, run, regressions)
                    continue
                assert len(regressions) == 2, regressions
                assert all(r[1] == f"{scenario} {metric} table" for r in regressions), regressions
                assert "[lower-is-better]" in text, text

        # End-summary material: the summary out-param must report the gated
        # point/table counts and pick the single worst-moving point, and the
        # rendered line must carry the PASS/FAIL verdict.
        summary = {}
        compared, regressions, _ = gate("old", "bad", summary=summary)
        assert summary["points"] == compared == 3, summary
        assert summary["tables"] == {("BENCH_fig1_rbtree.json", "Figure 1")}, summary
        severity, name, _, _, change = summary["worst"]
        assert name == "BENCH_fig1_rbtree.json", summary
        assert abs(change - 0.5) < 1e-9 and abs(severity - 2.0) < 1e-9, summary
        line = summary_line(compared, summary, regressions)
        assert "3 points across 1 tables gated" in line, line
        assert "worst 0.50x" in line and "FAIL (3 regression(s))" in line, line
        summary = {}
        compared, regressions, _ = gate("old", "ok", summary=summary)
        line = summary_line(compared, summary, regressions)
        assert line.endswith("PASS"), line
        # The "ok" run preserves the throughput ratio (up to integer
        # rounding of 500/3), so the worst severity must sit well inside the
        # threshold's trip point of 1/(1-0.25).
        assert summary["worst"][0] < 1.0 / (1.0 - 0.25), summary
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("old_dir", nargs="?", help="baseline bench-reports directory")
    parser.add_argument("new_dir", nargs="?", help="fresh bench-reports directory")
    parser.add_argument("--numerator", default="RH1-Fast")
    parser.add_argument("--denominator", default="TL2")
    parser.add_argument("--threshold", type=float, default=0.25)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.old_dir or not args.new_dir:
        parser.print_usage(sys.stderr)
        return 2
    if not os.path.isdir(args.old_dir):
        # First run ever / expired artifact: nothing to gate against.
        print(f"no baseline directory '{args.old_dir}'; skipping gate")
        return 0

    print(
        f"gating {args.numerator}/{args.denominator} per (scenario, table, x), "
        f"threshold {args.threshold:.0%}:"
    )
    summary = {}
    compared, regressions = compare(
        args.old_dir, args.new_dir, args.numerator, args.denominator, args.threshold,
        summary=summary,
    )
    if compared == 0:
        print("summary: 0 points gated (no overlapping tables/series); PASS")
        return 0
    if regressions:
        print(f"\n{len(regressions)} gated regression(s) of {compared} compared points:")
        for name, title, x, old_r, new_r, change in regressions:
            print(f"  {name} | {title} | x={x}: {old_r:.3f} -> {new_r:.3f} ({change:.2f}x)")
    print(summary_line(compared, summary, regressions))
    return 1 if regressions else 0


def summary_line(compared, summary, regressions):
    """The machine-greppable one-line verdict the CI log ends on."""
    worst = summary.get("worst")
    worst_txt = "no movement"
    if worst is not None:
        _, name, title, x, change = worst
        worst_txt = f"worst {change:.2f}x at {name} | {title} | x={x}"
    verdict = f"FAIL ({len(regressions)} regression(s))" if regressions else "PASS"
    return (
        f"summary: {compared} points across {len(summary.get('tables', ()))} "
        f"tables gated; {worst_txt}; {verdict}"
    )


if __name__ == "__main__":
    sys.exit(main())
