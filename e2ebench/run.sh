#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload oneshot-clock-json --seed 1 --seconds 30 --trace 0
#   bash e2ebench/run.sh --workload all --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact (Go build cache, temp files, the binary,
# result records, span dumps) stays under .bench_build/ in the current
# directory. The build needs the repository's own packages next to
# e2ebench/; without them it fails and nothing is run.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)

# --workload all runs every workload in turn, each in its own process.
args=("$@")
for i in "${!args[@]}"; do
	if [[ ${args[$i]} == --workload && ${args[$((i + 1))]:-} == all ]]; then
		for w in oneshot-clock-json oneshot-quant-gw stream-event-gw; do
			args[$((i + 1))]=$w
			"$out/e2ebench" "${args[@]}"
		done
		exit 0
	fi
done
exec "$out/e2ebench" "$@"
