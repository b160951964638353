# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test fmt-check check bench-build bench bench-smoke bench-paper benchdiff faultbench serve-smoke gate-smoke stream-smoke quant-parity profile

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# fmt-check fails when any tracked Go file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt -l: not formatted:"; echo "$$out"; exit 1; fi

# check is the tier-1 verification gate: formatting, static analysis,
# then the full suite under the race detector (Evaluate fans samples
# across workers). The simulation-heavy experiments package needs more
# than go test's default 10m deadline under -race.
check:
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(GO) test -race -timeout 45m ./...
	$(MAKE) bench-build
	$(MAKE) quant-parity
	$(MAKE) serve-smoke
	$(MAKE) gate-smoke
	$(MAKE) stream-smoke
	$(MAKE) bench-smoke
	bash scripts/benchdiff.sh --if-baseline

# bench-build vets and tests the e2ebench module, which has its own
# go.mod (so the root ./... skips it) and compiles against the serve and
# core APIs: an API change that breaks the benchmark fails here.
bench-build:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# quant-parity is the int8 engine's accuracy gate: argmax agreement
# between the fixed-point and float64 clocked engines over the pinned
# fixture, failing below the baseline in quant_test.go (quantParityMin).
quant-parity:
	$(GO) test -run 'TestQuantEngineFixtureParity' -count=1 -v ./internal/core/

# serve-smoke boots cmd/snnserve on a tiny model, replays load with
# cmd/snnload, and asserts non-zero throughput plus a clean SIGTERM
# drain — the serving layer's end-to-end gate.
serve-smoke:
	bash scripts/serve_smoke.sh

# gate-smoke is the fleet chaos gate: two snnserve replicas behind
# cmd/snngate, a backend killed -9 mid-load with zero client-visible
# failures, eviction + readmission through the probe ladder, and a
# golden-checked rolling hot-swap under load.
gate-smoke:
	bash scripts/gate_smoke.sh

# stream-smoke is the /v1/stream gate: N frames in = N events out with
# streamed predictions bit-identical to one-shot /v1/infer across the
# NDJSON and binary lanes, plus a chaos leg where sessions ride through
# a mid-run backend kill behind snngate with zero client-visible
# failures (resuming from in-band retry events).
stream-smoke:
	bash scripts/stream_smoke.sh

# bench runs the inference hot-path benchmarks and records ns/op,
# B/op, allocs/op as machine-readable BENCH_<date>.json.
bench:
	bash scripts/bench.sh

# bench-smoke is the 1-iteration variant wired into check: proves the
# benchmarks and the JSON emitter still work without paying bench time.
bench-smoke:
	bash scripts/bench.sh --smoke

# benchdiff compares the two newest BENCH_*.json records and fails on
# >10% ns/op growth or any allocs/op increase; check runs it in
# --if-baseline mode, which skips until a comparable pair exists.
benchdiff:
	bash scripts/benchdiff.sh

# bench-paper reproduces the paper's tables/figures benchmarks.
bench-paper:
	$(GO) test -bench=. -benchmem .

faultbench:
	$(GO) run ./cmd/faultbench -scale tiny

# profile boots snnserve with -pprof, captures a CPU profile while
# snnload drives traffic, and writes profile_serve.pb.gz — the evidence
# base for serve-path perf PRs. PROFILE_ARGS passes extra snnload flags
# (e.g. PROFILE_ARGS='-wire binary').
profile:
	bash scripts/profile.sh
