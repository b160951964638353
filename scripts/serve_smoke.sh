#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke test of the serving layer: build
# snnserve + snnload, start a tiny-scale server (cached weights make
# this fast), replay a short load, assert zero errors and non-zero
# throughput, and verify the server drains cleanly on SIGTERM. A second
# leg repeats the exercise with -parallel 2 (data-parallel batch
# execution) and asserts the parallel_chunks metric moved. A third leg
# hosts two models in one process (TTFS + rate-coded), routes load to
# both, asserts their metrics are tracked separately, and proves
# deadline-headroom admission: a burst with a hopeless deadline against
# the slow model is shed with 429 + Retry-After while the fast model's
# concurrent traffic finishes error-free.
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${SMOKE_PORT:-18099}"
BIN="$(mktemp -d)"
SRV=""
cleanup() {
    [ -n "$SRV" ] && kill "$SRV" 2>/dev/null || true
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/" ./cmd/snnserve ./cmd/snnload ./cmd/snnc

# one_leg <tag> <extra snnserve flags...>: boot, load, assert, drain.
# Sets LOAD to snnload's full output.
one_leg() {
    local tag="$1"; shift
    "$BIN/snnserve" -addr "127.0.0.1:$PORT" -dataset mnist -scale tiny -cache models -batch 16 "$@" &
    SRV=$!

    LOAD="$("$BIN/snnload" -addr "http://127.0.0.1:$PORT" -dataset mnist -n 120 -c 12)"
    echo "$LOAD"
    local result
    result="$(echo "$LOAD" | grep '^RESULT ')"

    echo "$result" | grep -q ' err=0 ' || { echo "serve-smoke: FAIL ($tag: request errors)"; exit 1; }
    THR="$(echo "$result" | sed 's/.*throughput=\([0-9.]*\).*/\1/')"
    awk -v t="$THR" 'BEGIN { exit !(t > 0) }' || { echo "serve-smoke: FAIL ($tag: zero throughput)"; exit 1; }

    kill -TERM "$SRV"
    if ! wait "$SRV"; then
        echo "serve-smoke: FAIL ($tag: server exited non-zero on SIGTERM)"
        exit 1
    fi
    SRV=""
}

one_leg sequential
SEQ_THR="$THR"
SEQ_ACC="$(echo "$LOAD" | grep '^RESULT ' | sed 's/.* acc=\([0-9.]*\).*/\1/')"

one_leg parallel -parallel 2
CHUNKS="$(echo "$LOAD" | sed -n 's/.*parallel chunks \([0-9]*\).*/\1/p')"
[ -n "$CHUNKS" ] && [ "$CHUNKS" -gt 0 ] || { echo "serve-smoke: FAIL (parallel: parallel_chunks stayed 0)"; exit 1; }
PAR_THR="$THR"

# --- latency leg: event engine, batch 1, single-sample direct path.
# Early exits must actually fire, and the early-exit argmax contract
# means accuracy must equal the clocked sequential leg's exactly.
one_leg latency -engine event -batch 1 -mode latency
LAT_RESULT="$(echo "$LOAD" | grep '^RESULT ')"
EE="$(echo "$LAT_RESULT" | sed 's/.* early_exit=\([0-9]*\).*/\1/')"
EVS="$(echo "$LAT_RESULT" | sed 's/.* events_saved=\([0-9]*\).*/\1/')"
[ -n "$EE" ] && [ "$EE" -gt 0 ] || { echo "serve-smoke: FAIL (latency: early_exit stayed 0)"; exit 1; }
LAT_ACC="$(echo "$LAT_RESULT" | sed 's/.* acc=\([0-9.]*\).*/\1/')"
[ "$LAT_ACC" = "$SEQ_ACC" ] || { echo "serve-smoke: FAIL (latency: acc $LAT_ACC != clocked $SEQ_ACC)"; exit 1; }

# --- multi-model leg: one process, two models, admission control ---
"$BIN/snnserve" -addr "127.0.0.1:$PORT" -cache models -batch 16 \
    -model main=mnist/tiny -model slow=mnist/tiny:rate:100 &
SRV=$!

# Prime the slow model's batch-latency window (and prove it serves).
PRIME="$("$BIN/snnload" -addr "http://127.0.0.1:$PORT" -model slow -dataset mnist -n 8 -c 2)"
echo "$PRIME"
echo "$PRIME" | grep '^RESULT ' | grep -q ' err=0 ' || { echo "serve-smoke: FAIL (multi: slow-model prime errored)"; exit 1; }
echo "$PRIME" | grep -q '^  server: ' || { echo "serve-smoke: FAIL (multi: no per-model metrics for slow)"; exit 1; }

# Concurrently: clean load on the fast model, and a burst with a
# hopeless 5ms deadline on the slow model (rate @100 steps is far
# slower than that per batch) that must be shed with 429 + Retry-After.
"$BIN/snnload" -addr "http://127.0.0.1:$PORT" -model main -dataset mnist -n 120 -c 12 > "$BIN/main_load.txt" 2>&1 &
MAIN_LOAD=$!
SHED="$("$BIN/snnload" -addr "http://127.0.0.1:$PORT" -model slow -dataset mnist \
    -n 40 -c 8 -timeout-ms 5 -retries 0 -tolerate-shed)"
echo "$SHED"
if ! wait "$MAIN_LOAD"; then
    cat "$BIN/main_load.txt"
    echo "serve-smoke: FAIL (multi: fast-model load errored while slow model was shedding)"
    exit 1
fi
MAIN="$(cat "$BIN/main_load.txt")"
echo "$MAIN"

SHED_RESULT="$(echo "$SHED" | grep '^RESULT ')"
SHED_CT="$(echo "$SHED_RESULT" | sed 's/.* shed=\([0-9]*\).*/\1/')"
RA_CT="$(echo "$SHED_RESULT" | sed 's/.* retry_after=\([0-9]*\).*/\1/')"
[ -n "$SHED_CT" ] && [ "$SHED_CT" -gt 0 ] || { echo "serve-smoke: FAIL (multi: no deadline-headroom 429s)"; exit 1; }
[ -n "$RA_CT" ] && [ "$RA_CT" -gt 0 ] || { echo "serve-smoke: FAIL (multi: 429s without Retry-After)"; exit 1; }

MAIN_RESULT="$(echo "$MAIN" | grep '^RESULT ')"
echo "$MAIN_RESULT" | grep -q ' err=0 ' || { echo "serve-smoke: FAIL (multi: fast-model errors)"; exit 1; }
echo "$MAIN_RESULT" | grep -q ' shed=0 ' || { echo "serve-smoke: FAIL (multi: fast-model traffic was shed)"; exit 1; }
# Separate metrics: each model's /metrics entry reflects only its own
# completions (slow saw just the 8 prime requests; main saw its 120).
MAIN_DONE="$(echo "$MAIN" | sed -n 's/^  server: .*completed \([0-9]*\),.*/\1/p')"
SLOW_DONE="$(echo "$SHED" | sed -n 's/^  server: .*completed \([0-9]*\),.*/\1/p')"
[ "$MAIN_DONE" = "120" ] || { echo "serve-smoke: FAIL (multi: main completed=$MAIN_DONE, want 120)"; exit 1; }
[ "$SLOW_DONE" = "8" ] || { echo "serve-smoke: FAIL (multi: slow completed=$SLOW_DONE, want 8)"; exit 1; }

kill -TERM "$SRV"
if ! wait "$SRV"; then
    echo "serve-smoke: FAIL (multi: server exited non-zero on SIGTERM)"
    exit 1
fi
SRV=""

# --- wire leg: binary protocol vs JSON on a transport-bound model ---
# A -micro model (3072 inputs, one dense stage) makes request decode the
# dominant per-request cost, so this leg measures the wire path itself:
# the binary format must deliver >= 2x JSON's throughput, and the two
# formats must produce bit-identical predictions sample by sample. Each
# leg sends 5000 requests, so even the binary one (~6500-8300 req/s on 2
# CPUs) runs for more than half a second: over shorter legs the ratio
# swings with host stalls.
"$BIN/snnc" -micro 3072 -o "$BIN/micro.t2f"
"$BIN/snnserve" -addr "127.0.0.1:$PORT" -model micro="$BIN/micro.t2f" -batch 16 &
SRV=$!

WIRE_JSON="$("$BIN/snnload" -addr "http://127.0.0.1:$PORT" -dataset cifar10 -n 5000 -c 12 -preds "$BIN/wire_json.preds")"
echo "$WIRE_JSON"
WIRE_JSON_RESULT="$(echo "$WIRE_JSON" | grep '^RESULT ')"
echo "$WIRE_JSON_RESULT" | grep -q ' err=0 ' || { echo "serve-smoke: FAIL (wire: JSON leg errors)"; exit 1; }

WIRE_BIN="$("$BIN/snnload" -addr "http://127.0.0.1:$PORT" -dataset cifar10 -n 5000 -c 12 -wire binary -preds "$BIN/wire_bin.preds")"
echo "$WIRE_BIN"
WIRE_BIN_RESULT="$(echo "$WIRE_BIN" | grep '^RESULT ')"
echo "$WIRE_BIN_RESULT" | grep -q ' err=0 ' || { echo "serve-smoke: FAIL (wire: binary leg errors)"; exit 1; }

diff "$BIN/wire_json.preds" "$BIN/wire_bin.preds" > /dev/null \
    || { echo "serve-smoke: FAIL (wire: predictions differ between JSON and binary)"; exit 1; }

JSON_THR="$(echo "$WIRE_JSON_RESULT" | sed 's/.*throughput=\([0-9.]*\).*/\1/')"
BIN_THR="$(echo "$WIRE_BIN_RESULT" | sed 's/.*throughput=\([0-9.]*\).*/\1/')"
awk -v j="$JSON_THR" -v b="$BIN_THR" 'BEGIN { exit !(b >= 2 * j) }' \
    || { echo "serve-smoke: FAIL (wire: binary $BIN_THR req/s < 2x JSON $JSON_THR req/s)"; exit 1; }

kill -TERM "$SRV"
if ! wait "$SRV"; then
    echo "serve-smoke: FAIL (wire: server exited non-zero on SIGTERM)"
    exit 1
fi
SRV=""

echo "serve-smoke: ok (sequential $SEQ_THR samples/s, parallel $PAR_THR samples/s, $CHUNKS chunks, latency leg $EE/120 early exits saving $EVS events at acc=$LAT_ACC, multi-model shed $SHED_CT/40 with Retry-After, wire binary $BIN_THR vs JSON $JSON_THR req/s)"
