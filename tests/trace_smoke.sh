#!/bin/sh
# Trace smoke: run the contention scenario with the flight recorder and the
# metrics sampler on, then have scripts/trace_summary.py --check validate the
# binary trace (structure + >=95% of in-transaction time attributed to named
# tiers), render it as Chrome JSON that must load, and assert the timeline
# landed in the BENCH json. Then trace the durable scenario the same way and
# require its Chrome JSON to carry the log, mark and apply phase slices.
#
# Usage: trace_smoke.sh <run_all> <trace_summary.py> <workdir>
set -e
bin="$1"
summary="$2"
work="$3"
mkdir -p "$work"
trace="$work/trace_contention.rhtrace"
chrome="$work/trace_contention.json"
dtrace="$work/trace_durable.rhtrace"
dchrome="$work/trace_durable.json"
rm -f "$trace" "$chrome" "$work/BENCH_contention.json" "$dtrace" "$dchrome"

"$bin" --scenario=contention --substrate=sim \
       --seconds=0.02 --threads=2 \
       --trace="$trace" --timeline=10 --json-dir="$work"

test -s "$trace" || { echo "no trace written"; exit 1; }

python3 "$summary" "$trace" --check --chrome "$chrome"
python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$chrome"

# The sampler must have produced a timeline array in the report.
grep -q '"timeline"' "$work/BENCH_contention.json" || {
  echo "BENCH_contention.json has no timeline field"
  exit 1
}
# Provenance must be stamped (any value, including "unknown", but present).
grep -q '"git_sha"' "$work/BENCH_contention.json" || {
  echo "BENCH_contention.json has no git_sha provenance"
  exit 1
}

"$bin" --scenario=durable --substrate=sim --seconds=0.01 --threads=2 \
       --trace="$dtrace" --no-json
python3 "$summary" "$dtrace" --check --chrome "$dchrome"
for phase in log mark apply; do
  grep -q "\"dur:$phase\"" "$dchrome" || {
    echo "durable trace has no dur:$phase slice"
    exit 1
  }
done
echo "trace smoke passed"
