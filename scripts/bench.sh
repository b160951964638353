#!/usr/bin/env bash
# bench.sh — run the inference hot-path benchmarks and emit a
# machine-readable JSON record (ns/op, allocs/op, B/op per benchmark).
#
#   scripts/bench.sh             full run, writes BENCH_<date>.json
#   scripts/bench.sh --smoke     1-iteration sanity pass (wired into
#                                `make check`): verifies the benchmarks
#                                still build and run; numbers are noise.
#
# Output JSON shape (one entry per benchmark):
#   { "date": "...", "go": "...", "gomaxprocs": N, "smoke": false,
#     "benchmarks": [ {"name": ..., "workers": N, "ns_per_op": ...,
#                      "bytes_per_op": ..., "allocs_per_op": ...}, ... ] }
# gomaxprocs (record level) and workers (parsed from the /workersN
# sub-benchmark name, 1 otherwise) let benchdiff.sh refuse comparisons
# across core counts. Each benchmark runs BENCHCOUNT (default 3) times
# and the record keeps the per-benchmark minimum — the least
# interference-sensitive estimator, so benchdiff's 10% regression gate
# measures the code, not co-tenant VM load.
set -euo pipefail
cd "$(dirname "$0")/.."

GO=${GO:-go}
SMOKE=0
if [[ "${1:-}" == "--smoke" ]]; then
  SMOKE=1
fi
GMP="${GOMAXPROCS:-$(nproc)}"

# The hot-path benchmarks the zero-allocation work is gated on.
# BenchmarkServeE2E (internal/serve) covers the HTTP request path:
# mux + negotiation + decode + direct inference + encode, JSON vs
# binary wire formats. BenchmarkSchemeRun (internal/coding) times the
# rate, Poisson-rate, phase and burst baseline codings.
# BenchmarkInferServed (internal/core) times the clocked, early-exit and
# quant engines on the geometry snnserve serves by default (28×28
# LeNet, T=20, early firing at T/2); the other core benchmarks use a
# 16×16 fixture at T=80.
PATTERN='BenchmarkInfer$|BenchmarkInferBatch$|BenchmarkInferBatchParallel$|BenchmarkInferEventEarlyExit$|BenchmarkInferQuant$|BenchmarkInferServed$|BenchmarkServeE2E$|BenchmarkSchemeRun$'
PKG="./internal/core/ ./internal/serve/ ./internal/coding/"

if [[ $SMOKE -eq 1 ]]; then
  BENCHTIME=1x
  BENCHCOUNT=1
  OUT=$(mktemp)
  trap 'rm -f "$OUT"' EXIT
else
  BENCHTIME=${BENCHTIME:-2s}
  BENCHCOUNT=${BENCHCOUNT:-3}
  # BENCH_OUT overrides the date-derived name so a same-day rerun can't
  # silently clobber the committed baseline benchdiff compares against.
  OUT="${BENCH_OUT:-BENCH_$(date +%F).json}"
fi

# shellcheck disable=SC2086  # PKG is a deliberate package list
RAW=$("$GO" test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$BENCHCOUNT" $PKG)
echo "$RAW"

echo "$RAW" | awk -v smoke="$SMOKE" -v goversion="$("$GO" env GOVERSION)" -v gmp="$GMP" '
BEGIN {
  printf "{\n  \"date\": \"%s\",\n", strftime("%Y-%m-%dT%H:%M:%S%z")
  printf "  \"go\": \"%s\",\n", goversion
  printf "  \"gomaxprocs\": %d,\n", gmp
  printf "  \"smoke\": %s,\n  \"benchmarks\": [", smoke ? "true" : "false"
  n = 0
}
/^Benchmark/ {
  name = $1; ns = ""; bytes = ""; allocs = ""
  for (i = 2; i <= NF; i++) {
    if ($(i) == "ns/op")     ns = $(i-1)
    if ($(i) == "B/op")      bytes = $(i-1)
    if ($(i) == "allocs/op") allocs = $(i-1)
  }
  if (ns == "") next
  if (!(name in minNs)) {
    order[++n] = name
    minNs[name] = ns + 0; minBy[name] = bytes; minAl[name] = allocs
    next
  }
  # repeated -count runs: keep the minimum of every metric
  if (ns + 0 < minNs[name]) minNs[name] = ns + 0
  if (bytes != "" && (minBy[name] == "" || bytes + 0 < minBy[name] + 0)) minBy[name] = bytes
  if (allocs != "" && (minAl[name] == "" || allocs + 0 < minAl[name] + 0)) minAl[name] = allocs
}
END {
  for (i = 1; i <= n; i++) {
    name = order[i]
    workers = 1
    if (match(name, /\/workers[0-9]+/))
      workers = substr(name, RSTART + 8, RLENGTH - 8) + 0
    if (i > 1) printf ","
    printf "\n    {\"name\": \"%s\", \"workers\": %d, \"ns_per_op\": %d", name, workers, minNs[name]
    if (minBy[name] != "")  printf ", \"bytes_per_op\": %s", minBy[name]
    if (minAl[name] != "") printf ", \"allocs_per_op\": %s", minAl[name]
    printf "}"
  }
  printf "\n  ]\n}\n"
}
' > "$OUT"

if [[ $SMOKE -eq 1 ]]; then
  # sanity: the JSON must hold at least one parsed benchmark
  grep -q '"ns_per_op"' "$OUT" || { echo "bench.sh: no benchmarks parsed" >&2; exit 1; }
  echo "bench smoke OK"
else
  echo "wrote $OUT"
fi
