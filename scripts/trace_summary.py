#!/usr/bin/env python3
"""Validate, summarize and render the binary trace written by --trace.

run_all --trace=FILE dumps its flight-recorder rings as they are in memory
(core/trace.h, write_binary): a 56-byte file header

    magic "RHTMTRC\\0", version, ring count, tsc_hz, tsc0,
    total events, exact dropped events, denied rings

then, per ring, a 16-byte ring header (id, resident count, total emitted)
followed by its resident 16-byte events, oldest first. All little-endian.

This script is the one reader of that file and the one place that knows
the Chrome trace-event mapping Perfetto loads:
  * a committed transaction is an "X" slice "tx:<tier>" (cat "tx"), its
    duration the commit event's cycles-since-begin, so it is exact even
    when the matching begin event was wrapped out of the ring;
  * durable commit phases are "X" slices "dur:log|mark|apply" (cat
    "durable"), nested inside their transaction;
  * attempts ("attempt:<path>"), aborts ("abort:<cause>"), escalations
    ("esc:<path>", "fallback_lock") and contention-manager decisions
    ("cm:sw_enter|sw_exit|sw_probe") are thread-scoped "i" instants;
  * one track per ring, named "ctx<id> (dropped=<n>)".
Timestamps are microseconds since the tracer's construction (tsc0).

Usage:
    trace_summary.py TRACE            summarize (always validates)
    trace_summary.py TRACE --check    exit 1 unless the file is valid AND
                                      >= --min-attribution (default 95%)
                                      of in-transaction time is attributed
                                      to known tiers
    trace_summary.py TRACE --chrome OUT.json
                                      also stream the Chrome JSON to OUT
    trace_summary.py --self-test

Exit status: 0 = ok; 1 = validation/attribution failure; 2 = usage error.
"""

import argparse
import io
import json
import struct
import sys

MAGIC = b"RHTMTRC\0"
VERSION = 1
HEADER = struct.Struct("<8sIIdQQQQ")  # trace::FileHeader
RING = struct.Struct("<HHIQ")         # trace::RingHeader
EVENT = struct.Struct("<QIBBH")       # trace::Event: tsc, arg, kind, a, ring

# trace::EventKind values.
(TX_BEGIN, HW_ATTEMPT, ABORT, ESCALATE, FALLBACK_LOCK, COMMIT, SW_ENTER, SW_EXIT,
 SW_PROBE, DUR_LOG, DUR_MARK, DUR_APPLY) = range(1, 13)

# ExecPath::to_string (core/stats.h), by value — the tiers a commit may
# carry. An unknown tier renders as "?" and is counted but not attributed,
# so a renamed enum shows up as lost attribution instead of silently passing.
PATHS = ("htm", "rh1_fast", "rh1_slow", "rh2_slow", "rh2_slow_slow", "stm")
KNOWN_TIERS = set(PATHS)

# AbortCause::to_string, by value — the causes an abort may carry.
CAUSES = ("htm_conflict", "htm_capacity", "htm_explicit", "injected",
          "stm_validation", "stm_locked")

DUR_PHASES = {DUR_LOG: "dur:log", DUR_MARK: "dur:mark", DUR_APPLY: "dur:apply"}
CM_NAMES = {SW_ENTER: "cm:sw_enter", SW_EXIT: "cm:sw_exit", SW_PROBE: "cm:sw_probe"}


def path_name(a):
    return PATHS[a] if a < len(PATHS) else "?"


def read_header(f, problems):
    """Parses the file header into a dict; None (with a problem) if unusable."""
    raw = f.read(HEADER.size)
    if len(raw) < HEADER.size:
        problems.append(f"truncated: {len(raw)}-byte file header, want {HEADER.size}")
        return None
    magic, version, rings, tsc_hz, tsc0, events, dropped, denied = HEADER.unpack(raw)
    if magic != MAGIC:
        problems.append(f"bad magic {magic!r}, want {MAGIC!r}")
        return None
    if version != VERSION:
        problems.append(f"version {version}, want {VERSION}")
        return None
    if not tsc_hz > 0:
        problems.append(f"tsc_hz {tsc_hz!r} is not positive")
        return None
    return {"rings": rings, "tsc_hz": tsc_hz, "tsc0": tsc0, "events": events,
            "dropped": dropped, "denied_rings": denied}


def iter_rings(f, header, problems):
    """Yields (ring id, total, resident, event bytes) per ring, then checks
    the header's counts against the rings and that nothing trails them."""
    total_events = 0
    dropped = 0
    for i in range(header["rings"]):
        raw = f.read(RING.size)
        if len(raw) < RING.size:
            problems.append(f"truncated: ring {i} of {header['rings']} has no header")
            return
        rid, _pad, resident, total = RING.unpack(raw)
        if resident > total:
            problems.append(f"ring {rid}: {resident} resident events of {total} emitted")
        data = f.read(resident * EVENT.size)
        if len(data) < resident * EVENT.size:
            problems.append(f"truncated: ring {rid} holds {len(data) // EVENT.size} "
                            f"of {resident} events")
            return
        total_events += total
        dropped += max(total - resident, 0)
        yield rid, total, resident, data
    if f.read(1):
        problems.append("trailing bytes after the last ring")
    if total_events != header["events"]:
        problems.append(f"header counts {header['events']} events, rings {total_events}")
    if dropped != header["dropped"]:
        problems.append(f"header counts {header['dropped']} dropped, rings {dropped}")


def chrome_events(header, rings, problems):
    """THE Chrome mapping: yields (tid, ph, name, cat, ts_us, dur_us) per
    rendered event — an "M" thread-name record before each ring's events.
    Begin events render nothing (a slice starts at its commit minus its
    duration). Unknown kinds, unknown abort causes and events naming another
    ring are problems, and are skipped."""
    tsc0 = header["tsc0"]
    scale = 1e6 / header["tsc_hz"]
    for rid, total, resident, data in rings:
        yield rid, "M", f"ctx{rid} (dropped={total - resident})", None, 0.0, None
        for tsc, arg, kind, a, ring in EVENT.iter_unpack(data):
            if ring != rid:
                problems.append(f"ring {rid}: event names ring {ring}")
                continue
            ts = (tsc - tsc0) * scale if tsc > tsc0 else 0.0
            if kind == TX_BEGIN:
                continue
            if kind == HW_ATTEMPT:
                yield rid, "i", "attempt:" + path_name(a), "attempt", ts, None
            elif kind == COMMIT:
                dur = arg * scale
                yield rid, "X", "tx:" + path_name(a), "tx", max(ts - dur, 0.0), dur
            elif kind == ABORT:
                if a >= len(CAUSES):
                    problems.append(f"ring {rid}: unknown abort cause {a}")
                    continue
                yield rid, "i", "abort:" + CAUSES[a], "abort", ts, None
            elif kind in DUR_PHASES:
                dur = arg * scale
                yield rid, "X", DUR_PHASES[kind], "durable", max(ts - dur, 0.0), dur
            elif kind == ESCALATE:
                yield rid, "i", "esc:" + path_name(a), "escalate", ts, None
            elif kind == FALLBACK_LOCK:
                yield rid, "i", "fallback_lock", "escalate", ts, None
            elif kind in CM_NAMES:
                yield rid, "i", CM_NAMES[kind], "cm", ts, None
            else:
                problems.append(f"ring {rid}: unknown event kind {kind}")


def summarize(events):
    """Aggregates chrome_events() into the report printed by main().

    Returns a dict with: tier_us {tier: total slice us}, unknown_tier_us,
    durable_us {phase: us}, counts {category: n}, aborts {cause: n},
    threads {tid: {"tx_us":, "events":, "name":}}, span_us (first ts ->
    last ts+dur over rendered events), attribution (fraction of tx slice
    time on known tiers; 1.0 when there are no tx slices).
    """
    tier_us = {}
    unknown_tier_us = 0.0
    durable_us = {}
    counts = {}
    aborts = {}
    threads = {}
    t_min = None
    t_max = None
    slot = None
    for tid, ph, name, cat, ts, dur in events:
        if ph == "M":
            slot = threads.setdefault(tid, {"tx_us": 0.0, "events": 0, "name": name})
            continue
        slot["events"] += 1
        end = ts + dur if ph == "X" else ts
        if t_min is None or ts < t_min:
            t_min = ts
        if t_max is None or end > t_max:
            t_max = end
        counts[cat] = counts.get(cat, 0) + 1
        if cat == "tx":
            tier = name[3:]
            slot["tx_us"] += dur
            if tier in KNOWN_TIERS:
                tier_us[tier] = tier_us.get(tier, 0.0) + dur
            else:
                unknown_tier_us += dur
        elif cat == "durable":
            phase = name[4:]
            durable_us[phase] = durable_us.get(phase, 0.0) + dur
        elif cat == "abort":
            cause = name[6:]
            aborts[cause] = aborts.get(cause, 0) + 1
    total_tx = sum(tier_us.values()) + unknown_tier_us
    return {
        "tier_us": tier_us,
        "unknown_tier_us": unknown_tier_us,
        "durable_us": durable_us,
        "counts": counts,
        "aborts": aborts,
        "threads": threads,
        "span_us": (t_max - t_min) if t_min is not None else 0.0,
        "attribution": sum(tier_us.values()) / total_tx if total_tx > 0 else 1.0,
    }


def write_chrome(header, events, out):
    """Streams chrome_events() to `out` as one Chrome trace-event JSON
    document, passing each event on (so one pass also summarizes)."""
    other = {k: header[k] for k in ("rings", "events", "dropped", "denied_rings",
                                    "tsc_hz")}
    out.write('{\n"displayTimeUnit":"ms",\n"otherData":')
    out.write(json.dumps(other, separators=(",", ":")))
    out.write(',\n"traceEvents":[\n  {"pid":1,"tid":0,"ph":"M","name":"process_name",'
              '"args":{"name":"rhtm"}}')
    for e in events:
        tid, ph, name, cat, ts, dur = e
        if ph == "M":
            out.write(f',\n  {{"pid":1,"tid":{tid},"ph":"M","name":"thread_name",'
                      f'"args":{{"name":{json.dumps(name)}}}}}')
        elif ph == "X":
            args = f',"args":{{"tier":"{name[3:]}"}}' if cat == "tx" else ""
            out.write(f',\n  {{"pid":1,"tid":{tid},"ph":"X","ts":{ts:.3f},'
                      f'"dur":{dur:.3f},"name":"{name}","cat":"{cat}"{args}}}')
        else:
            out.write(f',\n  {{"pid":1,"tid":{tid},"ph":"i","ts":{ts:.3f},'
                      f'"name":"{name}","cat":"{cat}","s":"t"}}')
        yield e
    out.write("\n]\n}\n")


def process(f, problems, chrome_out=None):
    """One streaming pass over an open trace file: returns (header, summary)
    and renders the Chrome JSON to `chrome_out` on the way when given.
    header is None when the file header itself is unusable."""
    header = read_header(f, problems)
    if header is None:
        return None, summarize(())
    events = chrome_events(header, iter_rings(f, header, problems), problems)
    if chrome_out is not None:
        events = write_chrome(header, events, chrome_out)
    return header, summarize(events)


def print_summary(header, summary, out=sys.stdout):
    h = header or {}
    print(
        f"trace: {h.get('events', '?')} events, {h.get('rings', '?')} rings, "
        f"{h.get('dropped', 0)} dropped, {h.get('denied_rings', 0)} denied rings, "
        f"tsc {h.get('tsc_hz', 0) / 1e9:.2f} GHz",
        file=out,
    )
    total_tx = sum(summary["tier_us"].values()) + summary["unknown_tier_us"]
    print(f"per-tier time attribution ({total_tx:.0f} us in committed transactions):",
          file=out)
    for tier in sorted(summary["tier_us"], key=summary["tier_us"].get, reverse=True):
        us = summary["tier_us"][tier]
        pct = 100.0 * us / total_tx if total_tx > 0 else 0.0
        print(f"  {tier:<14} {us:>12.0f} us  {pct:5.1f}%", file=out)
    if summary["unknown_tier_us"] > 0:
        print(f"  {'<unknown>':<14} {summary['unknown_tier_us']:>12.0f} us", file=out)
    if summary["durable_us"]:
        print("durable phases (inside the slices above):", file=out)
        for phase in ("log", "mark", "apply"):
            if phase in summary["durable_us"]:
                print(f"  dur:{phase:<10} {summary['durable_us'][phase]:>12.0f} us",
                      file=out)
    if summary["aborts"]:
        print("aborts by cause:", file=out)
        for cause, n in sorted(summary["aborts"].items(), key=lambda kv: -kv[1]):
            print(f"  {cause:<14} {n}", file=out)
    print("event counts by category:", file=out)
    for cat, n in sorted(summary["counts"].items(), key=lambda kv: -kv[1]):
        print(f"  {cat:<14} {n}", file=out)
    span = summary["span_us"]
    print(f"per-thread busy fraction (tx time / {span:.0f} us traced span):", file=out)
    for tid in sorted(summary["threads"]):
        t = summary["threads"][tid]
        busy = 100.0 * t["tx_us"] / span if span > 0 else 0.0
        print(f"  {t['name']:<24} {t['events']:>8} events  {busy:5.1f}% busy", file=out)
    print(f"attribution: {100.0 * summary['attribution']:.2f}% of in-transaction "
          f"time on named tiers", file=out)


def print_problems(problems, out=sys.stdout, limit=20):
    for p in problems[:limit]:
        print(f"INVALID: {p}", file=out)
    if len(problems) > limit:
        print(f"INVALID: ... and {len(problems) - limit} more", file=out)


def check(problems, summary, min_attribution, out=sys.stdout):
    """The --check gate: a valid file + the attribution floor."""
    ok = not problems
    print_problems(problems, out)
    if summary["attribution"] < min_attribution:
        ok = False
        print(
            f"FAIL: {100.0 * summary['attribution']:.2f}% of in-transaction time "
            f"attributed to named tiers, need >= {100.0 * min_attribution:.0f}%",
            file=out,
        )
    return ok


# ------------------------------------------------------------- self-test --

def build_trace(rings, tsc_hz=1e6, tsc0=0, magic=MAGIC, version=VERSION, events=None,
                dropped=None):
    """A trace file as bytes. `rings` is [(id, total, [(tsc, kind, a, arg)])];
    the header counts follow from the rings unless given."""
    body = b""
    for rid, total, evs in rings:
        body += RING.pack(rid, 0, len(evs), total)
        body += b"".join(EVENT.pack(tsc, arg, kind, a, rid) for tsc, kind, a, arg in evs)
    if events is None:
        events = sum(total for _, total, _ in rings)
    if dropped is None:
        dropped = sum(total - len(evs) for _, total, evs in rings)
    return HEADER.pack(magic, version, len(rings), tsc_hz, tsc0, events, dropped,
                       0) + body


def run(data, chrome=False):
    """(problems, header, summary[, chrome JSON text]) for trace bytes."""
    problems = []
    out = io.StringIO() if chrome else None
    header, summary = process(io.BytesIO(data), problems, out)
    return (problems, header, summary) + ((out.getvalue(),) if chrome else ())


def self_test():
    sink = io.StringIO()
    rh1_fast, rh1_slow, rh2_slow, stm = (PATHS.index(p) for p in
                                         ("rh1_fast", "rh1_slow", "rh2_slow", "stm"))
    capacity = CAUSES.index("htm_capacity")
    # At tsc_hz = 1 MHz one tick is one microsecond. Ring 1 (3 dropped): a
    # 0-60 us rh1_fast transaction with a 10-15 us log phase, an abort at
    # 70 us, an 80-100 us stm transaction. Ring 2: a 0-20 us rh1_slow
    # transaction and a software-mode entry at 5 us.
    ring1 = [(0, TX_BEGIN, 0, 0), (15, DUR_LOG, 0, 5), (60, COMMIT, rh1_fast, 60),
             (70, ABORT, capacity, 70), (100, COMMIT, stm, 20)]
    ring2 = [(5, SW_ENTER, 0, 0), (20, COMMIT, rh1_slow, 20)]
    good = build_trace([(1, len(ring1) + 3, ring1), (2, len(ring2), ring2)])
    problems, header, s = run(good)
    assert problems == [], problems
    assert header["dropped"] == 3 and header["events"] == 10, header
    assert s["tier_us"] == {"rh1_fast": 60.0, "stm": 20.0, "rh1_slow": 20.0}, s
    assert s["unknown_tier_us"] == 0.0
    assert s["durable_us"] == {"log": 5.0}
    assert s["aborts"] == {"htm_capacity": 1}
    assert s["counts"]["tx"] == 3 and s["counts"]["cm"] == 1, s["counts"]
    assert s["threads"][1]["tx_us"] == 80.0 and s["threads"][2]["tx_us"] == 20.0
    assert s["threads"][1]["name"] == "ctx1 (dropped=3)", s["threads"][1]
    assert s["span_us"] == 100.0, s["span_us"]
    assert s["attribution"] == 1.0
    assert check(problems, s, 0.95, sink)
    print_summary(header, s, sink)

    # An unknown tier eats attribution: 100 us of 140 us known, and the 95%
    # gate must fail while the file stays valid.
    unknown = ring1 + [(240, COMMIT, 42, 40)]
    problems, _, s = run(build_trace([(1, len(unknown) + 3, unknown),
                                      (2, len(ring2), ring2)]))
    assert abs(s["attribution"] - 100.0 / 140.0) < 1e-9, s["attribution"]
    assert s["unknown_tier_us"] == 40.0
    assert problems == [], problems
    assert not check(problems, s, 0.95, sink)

    # Structural breakage: each class must produce its own problem line.
    def problems_of(data):
        return run(data)[0]

    def expect(data, needle):
        found = problems_of(data)
        assert any(needle in p for p in found), (needle, found)
        assert not check(found, summarize(()), 0.95, sink)

    expect(build_trace([], magic=b"CHROME\0\0"), "bad magic")
    expect(build_trace([], version=VERSION + 1), "version")
    expect(build_trace([], tsc_hz=0.0), "tsc_hz")
    expect(good[:HEADER.size - 1], "truncated")                # cut file header
    expect(good[:-EVENT.size], "truncated")                    # cut last event
    expect(good + b"\0", "trailing bytes")
    expect(build_trace([(1, 1, [(1, COMMIT, stm, 1)])], events=7), "events")
    expect(build_trace([(1, 9, [(1, COMMIT, stm, 1)])], dropped=0), "dropped")
    expect(build_trace([(1, 1, [(1, ABORT, 99, 1)])]), "unknown abort cause 99")
    expect(build_trace([(1, 1, [(1, 77, 0, 0)])]), "unknown event kind 77")
    wrong_ring = bytearray(build_trace([(1, 1, [(1, COMMIT, stm, 1)])]))
    wrong_ring[-2:] = struct.pack("<H", 5)  # the event's `ring` field
    expect(bytes(wrong_ring), "names ring 5")

    # No transactions at all: attribution is vacuously 1.0 (an empty trace
    # from a scenario that only aborted must not fail the floor).
    problems, _, s = run(build_trace([]))
    assert problems == [] and s["attribution"] == 1.0 and s["span_us"] == 0.0, s
    assert check(problems, s, 0.95, sink)

    # The Chrome rendering: a synthetic lifecycle (an aborted-then-committed
    # fast transaction, a durable STM transaction, one of each instant
    # family) renders one valid document with this slice and instant order.
    lifecycle = [
        (100, TX_BEGIN, 0, 0), (110, HW_ATTEMPT, rh1_fast, 1),
        (120, ABORT, CAUSES.index("htm_conflict"), 20), (130, HW_ATTEMPT, rh1_fast, 2),
        (140, COMMIT, rh1_fast, 40), (150, TX_BEGIN, 0, 0), (160, DUR_LOG, 0, 10),
        (170, DUR_MARK, 0, 5), (180, DUR_APPLY, 0, 2), (190, COMMIT, stm, 40),
        (200, SW_ENTER, 0, 0), (210, SW_EXIT, 0, 0), (220, FALLBACK_LOCK, 0, 0),
        (230, ESCALATE, rh2_slow, 0),
    ]
    problems, header, s, text = run(build_trace([(0, len(lifecycle), lifecycle)],
                                                tsc0=50), chrome=True)
    assert problems == [], problems
    doc = json.loads(text)
    other = doc["otherData"]
    assert other["rings"] == 1 and other["events"] == len(lifecycle), other
    assert other["dropped"] == 0 and other["tsc_hz"] > 0, other
    meta = 0
    slices = []
    instants = []
    for e in doc["traceEvents"]:
        if e["ph"] == "M":
            meta += 1
            continue
        assert e["ts"] >= 0 and e["pid"] == 1 and e["tid"] == 0, e
        if e["ph"] == "X":
            assert e["dur"] >= 0, e
            slices.append(e["name"])
            if e["name"].startswith("tx:"):
                assert "tx:" + e["args"]["tier"] == e["name"], e
        else:
            assert e["ph"] == "i" and e["s"] == "t", e
            instants.append(e["name"])
    assert meta == 2, meta  # process_name + one thread_name
    assert slices == ["tx:rh1_fast", "dur:log", "dur:mark", "dur:apply", "tx:stm"], slices
    assert instants == ["attempt:rh1_fast", "abort:htm_conflict", "attempt:rh1_fast",
                        "cm:sw_enter", "cm:sw_exit", "fallback_lock",
                        "esc:rh2_slow"], instants
    # The slices carry the events' own timing: tx:rh1_fast commits at 140
    # after 40 us, i.e. spans 50-90 us past tsc0.
    tx = next(e for e in doc["traceEvents"] if e.get("name") == "tx:rh1_fast")
    assert (tx["ts"], tx["dur"]) == (50.0, 40.0), tx
    assert s["tier_us"] == {"rh1_fast": 40.0, "stm": 40.0}, s
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trace", nargs="?", help="binary trace from run_all --trace")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless valid and above the attribution floor")
    parser.add_argument("--min-attribution", type=float, default=0.95,
                        help="fraction of tx time that must land on named tiers")
    parser.add_argument("--chrome", metavar="OUT.json",
                        help="also write the trace as Chrome trace-event JSON "
                             "(Perfetto, chrome://tracing)")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.trace:
        parser.print_usage(sys.stderr)
        return 2
    problems = []
    try:
        with open(args.trace, "rb") as f:
            if args.chrome:
                with open(args.chrome, "w") as out:
                    header, summary = process(f, problems, out)
            else:
                header, summary = process(f, problems)
    except OSError as e:
        print(f"INVALID: {e}", file=sys.stderr)
        return 1
    print_summary(header, summary)
    if args.chrome:
        print(f"# wrote {args.chrome}")
    if args.check:
        ok = check(problems, summary, args.min_attribution)
        print("check: PASS" if ok else "check: FAIL")
        return 0 if ok else 1
    print_problems(problems)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
