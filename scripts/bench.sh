#!/usr/bin/env bash
# bench.sh — run the wire-codec benchmark suite and every benchmark
# sweep (fragment granularity, hot-set cache, hop batching, failover,
# ring join, hot/cold tiers, wire backend), recording the results.
#
# Usage:
#   scripts/bench.sh          full run: 1s per benchmark, writes
#                             BENCH_wire.json and, through
#                             `go run ./cmd/dcbench <suite>`,
#                             BENCH_<suite>.json for each sweep
#   scripts/bench.sh -short   CI smoke: one iteration per benchmark and
#                             small sweeps (dcbench -short), still
#                             gating on codec/gob equivalence and on
#                             every sweep's gate
#
# The script fails if the codec-vs-gob equivalence tests fail (a wire
# format regression can never produce a "fast but wrong" green run) or
# if any sweep misses its gate (dcbench writes the snapshot, then exits
# non-zero). The JSON files are snapshots of the latest run (overwritten
# each time); committing them alongside perf-relevant changes makes git
# history the repo's perf trajectory.
set -euo pipefail
cd "$(dirname "$0")/.."

SHORT=0
if [ "${1:-}" = "-short" ]; then
  SHORT=1
fi

echo "== codec/gob equivalence gate =="
go test ./internal/bat -count=1 \
  -run 'TestWireRoundtrip|TestWireGobEquivalence|TestMarshalSizeExact|TestWireVersionRejected|TestWireCorruptInputs|TestSerial'
go test ./internal/server -count=1 -run 'TestHelloRoundtrip|TestResultRoundtrip'

if [ "$SHORT" -eq 1 ]; then
  BENCHTIME=1x
  SHORTFLAG=-short
else
  BENCHTIME=1s
  SHORTFLAG=
fi

echo "== wire benchmarks (benchtime=$BENCHTIME) =="
TMP=$(mktemp)
trap 'rm -f "$TMP"' EXIT
go test ./internal/bat -run NONE -bench 'BenchmarkMarshal|BenchmarkUnmarshal' \
  -benchmem -benchtime="$BENCHTIME" | tee -a "$TMP"
go test ./internal/live -run NONE -bench 'BenchmarkRingHop' \
  -benchmem -benchtime="$BENCHTIME" | tee -a "$TMP"

OUT=BENCH_wire.json
awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" -v short="$SHORT" '
BEGIN { n = 0 }
/^Benchmark/ {
  name = $1; sub(/-[0-9]+$/, "", name)
  iters = $2
  ns = ""; mbs = ""; bop = ""; aop = ""
  for (i = 3; i < NF; i++) {
    if ($(i+1) == "ns/op") ns = $i
    else if ($(i+1) == "MB/s") mbs = $i
    else if ($(i+1) == "B/op") bop = $i
    else if ($(i+1) == "allocs/op") aop = $i
  }
  line = sprintf("    {\"name\":\"%s\",\"iters\":%s", name, iters)
  if (ns != "")  line = line sprintf(",\"ns_per_op\":%s", ns)
  if (mbs != "") line = line sprintf(",\"mb_per_s\":%s", mbs)
  if (bop != "") line = line sprintf(",\"bytes_per_op\":%s", bop)
  if (aop != "") line = line sprintf(",\"allocs_per_op\":%s", aop)
  line = line "}"
  results[n++] = line
}
END {
  printf "{\n  \"date\": \"%s\",\n  \"short\": %s,\n  \"suite\": \"wire-codec-vs-gob\",\n  \"benchmarks\": [\n", date, (short == 1 ? "true" : "false")
  for (i = 0; i < n; i++) printf "%s%s\n", results[i], (i < n-1 ? "," : "")
  print "  ]\n}"
}' "$TMP" > "$OUT"

echo "== wrote $OUT =="

for suite in frag cache hop failover join tier uring; do
  echo "== $suite sweep =="
  go run ./cmd/dcbench $SHORTFLAG "$suite"
done
