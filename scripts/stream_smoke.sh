#!/usr/bin/env bash
# stream_smoke.sh — end-to-end smoke test of /v1/stream frame sessions.
#
# Leg A (bit-identity): one snnserve, one seeded random-walk frame
# schedule, replayed three ways — one-shot /v1/infer, streamed NDJSON
# sessions, streamed binary sessions. Every frame must produce exactly
# one event (N in = N out, zero errors, zero failures) and the three
# per-frame prediction files must be bit-identical. The server must
# then drain cleanly on SIGTERM.
#
# Leg B (chaos): two snnserve replicas behind snngate, streaming
# sessions driven through the gateway while one backend is kill -9'd
# mid-run. Clients must finish every frame with zero client-visible
# failures, resuming via in-band retry events (stream_retries >= 1
# proves the kill landed mid-session).
set -euo pipefail
cd "$(dirname "$0")/.."

PORT="${STREAM_SMOKE_PORT:-18113}"       # leg A server
GPORT="${STREAM_SMOKE_GATE_PORT:-18114}" # leg B gateway
B1PORT=$((GPORT + 1))
B2PORT=$((GPORT + 2))
BIN="$(mktemp -d)"
PIDS=()
cleanup() {
    for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/" ./cmd/snnserve ./cmd/snnload ./cmd/snngate

N=600
SEED=11

# --- leg A: streamed predictions must be bit-identical to one-shot ---
"$BIN/snnserve" -addr "127.0.0.1:$PORT" -dataset mnist -scale tiny -cache models -batch 16 &
SRV=$!
PIDS+=("$SRV")

run_load() { # run_load <tag> <preds-file> <extra flags...>
    local tag="$1" preds="$2"; shift 2
    local out
    out="$("$BIN/snnload" -addr "http://127.0.0.1:$PORT" -dataset mnist \
        -walk -seed "$SEED" -n "$N" -c 3 -preds "$preds" "$@")"
    echo "$out"
    local result
    result="$(echo "$out" | grep '^RESULT ')"
    echo "$result" | grep -q " ok=$N err=0 failed=0 " \
        || { echo "stream-smoke: FAIL ($tag: not every frame answered cleanly)"; exit 1; }
    RESULT="$result"
}

run_load oneshot "$BIN/oneshot.preds"
run_load stream-json "$BIN/stream_json.preds" -stream
echo "$RESULT" | grep -q " frames=$N " \
    || { echo "stream-smoke: FAIL (stream-json: frames != $N)"; exit 1; }
JSON_P50="$(echo "$RESULT" | sed 's/.* p50_ms=\([0-9.]*\).*/\1/')"
JSON_P99="$(echo "$RESULT" | sed 's/.* p99_ms=\([0-9.]*\).*/\1/')"
run_load stream-binary "$BIN/stream_bin.preds" -stream -wire binary

diff "$BIN/oneshot.preds" "$BIN/stream_json.preds" > /dev/null \
    || { echo "stream-smoke: FAIL (streamed NDJSON predictions differ from one-shot)"; exit 1; }
diff "$BIN/oneshot.preds" "$BIN/stream_bin.preds" > /dev/null \
    || { echo "stream-smoke: FAIL (streamed binary predictions differ from one-shot)"; exit 1; }

kill -TERM "$SRV"
if ! wait "$SRV"; then
    echo "stream-smoke: FAIL (leg A: server exited non-zero on SIGTERM)"
    exit 1
fi
PIDS=()

# --- leg B: backend killed mid-session behind the gateway ---
"$BIN/snnserve" -addr "127.0.0.1:$B1PORT" -dataset mnist -scale tiny -cache models -batch 16 &
B1=$!
PIDS+=("$B1")
"$BIN/snnserve" -addr "127.0.0.1:$B2PORT" -dataset mnist -scale tiny -cache models -batch 16 &
B2=$!
PIDS+=("$B2")
sleep 0.7
"$BIN/snngate" -addr "127.0.0.1:$GPORT" \
    -backend "http://127.0.0.1:$B1PORT" -backend "http://127.0.0.1:$B2PORT" \
    -probe-interval 200ms &
GATE=$!
PIDS+=("$GATE")
sleep 0.5

# Kill B2 once it has answered a stream frame, so the kill lands
# mid-session however fast the host runs the load (a fixed delay
# missed every session once the load finished inside it).
(
    for _ in $(seq 200); do
        curl -sf "http://127.0.0.1:$B2PORT/metrics" | grep -q '"stream_frames_total":[1-9]' && break
        sleep 0.02
    done
    kill -9 "$B2" 2>/dev/null
) &
KILLER=$!

CHAOS_N=1500
CHAOS="$("$BIN/snnload" -addr "http://127.0.0.1:$GPORT" -dataset mnist \
    -walk -seed "$SEED" -stream -n "$CHAOS_N" -c 3 -retries 10)"
echo "$CHAOS"
wait "$KILLER" 2>/dev/null || true

CHAOS_RESULT="$(echo "$CHAOS" | grep '^RESULT ')"
echo "$CHAOS_RESULT" | grep -q " ok=$CHAOS_N err=0 failed=0 " \
    || { echo "stream-smoke: FAIL (chaos: client-visible failures across backend kill)"; exit 1; }
RETRIES="$(echo "$CHAOS_RESULT" | sed 's/.* stream_retries=\([0-9]*\).*/\1/')"
[ -n "$RETRIES" ] && [ "$RETRIES" -gt 0 ] \
    || { echo "stream-smoke: FAIL (chaos: no retry events — the kill missed every session)"; exit 1; }

kill -TERM "$GATE"
if ! wait "$GATE"; then
    echo "stream-smoke: FAIL (chaos: gateway exited non-zero on SIGTERM with sessions served)"
    exit 1
fi
kill -TERM "$B1" && wait "$B1" || { echo "stream-smoke: FAIL (chaos: surviving backend exited non-zero)"; exit 1; }
PIDS=()

echo "stream-smoke: ok ($N frames x3 lanes bit-identical at p50=${JSON_P50}ms p99=${JSON_P99}ms per frame; chaos leg $CHAOS_N frames, $RETRIES session retries, zero failures)"
