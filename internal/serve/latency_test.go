package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/testutil"
)

// singleStubEngine is a stubEngine with the SingleEngine capability:
// InferOne calls are recorded separately from batches so tests can
// observe which path a request took.
type singleStubEngine struct {
	stubEngine
	panicOnce bool

	mu      sync.Mutex
	singles []float64 // input[0] of every InferOne call
}

func newSingleStubEngine() *singleStubEngine {
	return &singleStubEngine{stubEngine: stubEngine{inLen: 4, classes: 3}}
}

func (e *singleStubEngine) InferOne(input []float64, sample int) Prediction {
	e.mu.Lock()
	e.singles = append(e.singles, input[0])
	e.mu.Unlock()
	if e.panicOnce {
		e.panicOnce = false
		panic("stub single failure")
	}
	return Prediction{
		Pred:        int(input[0]) % e.classes,
		Latency:     3,
		TotalSpikes: 7,
		EarlyExit:   true,
		EventsSaved: 4,
	}
}

func (e *singleStubEngine) singleCalls() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.singles)
}

// latencyRoute must honor the request's explicit mode first, then the
// server default, then the automatic rule (no batching, or a deadline
// tighter than the rolling batch p99); engines without the capability
// always take the queue.
func TestLatencyRouting(t *testing.T) {
	single := newSingleStubEngine()
	batchOnly := newStubEngine()
	mk := func(eng Engine, opt Options) *Server {
		s := New(eng, opt)
		t.Cleanup(s.Close)
		return s
	}
	cases := []struct {
		name string
		srv  *Server
		req  InferRequest
		want bool
	}{
		{"no capability ignores mode", mk(batchOnly, Options{MaxBatch: 1}), InferRequest{Mode: ModeLatency}, false},
		{"explicit latency", mk(single, Options{MaxBatch: 8}), InferRequest{Mode: ModeLatency}, true},
		{"explicit throughput", mk(single, Options{MaxBatch: 1}), InferRequest{Mode: ModeThroughput}, false},
		{"default mode latency", mk(single, Options{MaxBatch: 8, DefaultMode: ModeLatency}), InferRequest{}, true},
		{"request overrides default", mk(single, Options{MaxBatch: 8, DefaultMode: ModeLatency}), InferRequest{Mode: ModeThroughput}, false},
		{"auto: batching off", mk(single, Options{MaxBatch: 1}), InferRequest{}, true},
		{"auto: batching on, no deadline", mk(single, Options{MaxBatch: 8}), InferRequest{}, false},
	}
	for _, tc := range cases {
		if got := tc.srv.latencyRoute(tc.req.Mode, tc.req.TimeoutMs); got != tc.want {
			t.Errorf("%s: latencyRoute = %v, want %v", tc.name, got, tc.want)
		}
	}

	// Auto deadline rule: seed the rolling batch p99, then a request
	// with a tighter deadline must go direct while a looser one queues.
	s := mk(single, Options{MaxBatch: 8})
	for i := 0; i < 2*batchP99Every; i++ {
		s.met.batchLatency(50 * time.Millisecond)
	}
	if !s.latencyRoute("", 10) {
		t.Error("deadline 10ms under batch p99 50ms: want direct route")
	}
	if s.latencyRoute("", 500) {
		t.Error("deadline 500ms over batch p99 50ms: want queue route")
	}
}

// InferDirect must bypass the queue, keep the accounting identity
// (accepted = completed + expired + failed), count the routing decision
// and the engine's early-exit telemetry, and feed the request-latency
// window without polluting the batch histogram.
func TestInferDirectUsesSingleEngine(t *testing.T) {
	eng := newSingleStubEngine()
	s := New(eng, Options{MaxBatch: 8})
	defer s.Close()

	pred, err := s.InferDirect(context.Background(), input(5), -1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Pred != 5%3 || !pred.EarlyExit || pred.EventsSaved != 4 {
		t.Fatalf("direct prediction = %+v", pred)
	}
	if eng.singleCalls() != 1 {
		t.Fatalf("single calls = %d, want 1", eng.singleCalls())
	}
	if eng.sawInput(5) {
		t.Fatal("direct request leaked into the batch path")
	}
	snap := s.Metrics().Snapshot()
	if snap.Accepted != 1 || snap.Completed != 1 || snap.LatencyPathTotal != 1 {
		t.Fatalf("accepted %d completed %d latency-path %d, want 1/1/1",
			snap.Accepted, snap.Completed, snap.LatencyPathTotal)
	}
	if snap.EarlyExitTotal != 1 || snap.EventsSaved != 4 {
		t.Fatalf("early exit %d events saved %d, want 1 and 4", snap.EarlyExitTotal, snap.EventsSaved)
	}
	for k := 1; k < len(snap.BatchSizeHist); k++ {
		if snap.BatchSizeHist[k] != 0 {
			t.Fatalf("direct request counted as a batch of %d", k)
		}
	}
	if snap.LabeledTotal != 1 {
		t.Fatalf("labeled total %d, want 1 (direct path must feed the confusion matrix)", snap.LabeledTotal)
	}
}

// Without the SingleEngine capability InferDirect must fall back to the
// queue and still complete.
func TestInferDirectFallsBackToQueue(t *testing.T) {
	eng := newStubEngine()
	s := New(eng, Options{MaxBatch: 4})
	defer s.Close()
	pred, err := s.InferDirect(context.Background(), input(7), -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if pred.Pred != 7%3 || !eng.sawInput(7) {
		t.Fatalf("fallback prediction %+v, batch saw input: %v", pred, eng.sawInput(7))
	}
	if snap := s.Metrics().Snapshot(); snap.LatencyPathTotal != 0 {
		t.Fatalf("latency path total %d on the fallback path, want 0", snap.LatencyPathTotal)
	}
}

// syncStubEngine adds the FrameEngine capability to singleStubEngine,
// sharing its panicOnce switch, so one engine drives both synchronous
// paths.
type syncStubEngine struct{ *singleStubEngine }

func (e syncStubEngine) InferFrame(input []float64, sample int, timeline bool) FrameResult {
	return FrameResult{Prediction: e.InferOne(input, sample)}
}

// syncPaths are the two synchronous entry points that share one
// admission and settle body.
var syncPaths = []struct {
	name string
	call func(s *Server, ctx context.Context, in []float64) (Prediction, error)
}{
	{"InferDirect", func(s *Server, ctx context.Context, in []float64) (Prediction, error) {
		return s.InferDirect(ctx, in, -1, -1)
	}},
	{"InferFrame", func(s *Server, ctx context.Context, in []float64) (Prediction, error) {
		fr, err := s.InferFrame(ctx, in, -1, -1, false)
		return fr.Prediction, err
	}},
}

// A panicking engine must fail only that request, on either
// synchronous path.
func TestInferDirectPanicContained(t *testing.T) {
	for _, p := range syncPaths {
		t.Run(p.name, func(t *testing.T) {
			eng := newSingleStubEngine()
			eng.panicOnce = true
			s := New(syncStubEngine{eng}, Options{MaxBatch: 1})
			defer s.Close()
			if _, err := p.call(s, context.Background(), input(1)); err == nil || !strings.Contains(err.Error(), "engine panic") {
				t.Fatalf("err = %v, want engine panic", err)
			}
			pred, err := p.call(s, context.Background(), input(4))
			if err != nil || pred.Pred != 4%3 {
				t.Fatalf("request after panic: %+v, %v", pred, err)
			}
			snap := s.Metrics().Snapshot()
			if snap.Accepted != snap.Completed+snap.Expired+snap.Failed {
				t.Fatalf("accounting identity broken: %+v", snap)
			}
			if snap.Failed != 1 {
				t.Fatalf("failed %d, want 1", snap.Failed)
			}
		})
	}
}

// Both synchronous paths must reject with ErrClosed once Close has
// started, and an already-expired context must be counted
// accepted+expired, exactly like the queued path.
func TestInferDirectClosedAndExpired(t *testing.T) {
	for _, p := range syncPaths {
		t.Run(p.name, func(t *testing.T) {
			s := New(syncStubEngine{newSingleStubEngine()}, Options{MaxBatch: 1})
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			if _, err := p.call(s, ctx, input(1)); err != context.Canceled {
				t.Fatalf("dead context: err = %v, want context.Canceled", err)
			}
			s.Close()
			if _, err := p.call(s, context.Background(), input(1)); err != ErrClosed {
				t.Fatalf("after close: err = %v, want ErrClosed", err)
			}
			snap := s.Metrics().Snapshot()
			if snap.Accepted != 1 || snap.Expired != 1 {
				t.Fatalf("accepted %d expired %d, want 1/1", snap.Accepted, snap.Expired)
			}
		})
	}
}

// Over HTTP, mode=latency must take the direct path, mode=throughput
// the queue, and an unknown mode must 400 before touching the engine;
// the response must surface the early-exit telemetry.
func TestHTTPModeRouting(t *testing.T) {
	eng := newSingleStubEngine()
	_, _, ts := newTestRegistry(t, eng, Options{MaxBatch: 8})

	post := func(body string) (*http.Response, InferResponse) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out InferResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
		}
		return resp, out
	}

	resp, out := post(`{"input":[9,0,0,0],"mode":"latency"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("latency mode: status %d", resp.StatusCode)
	}
	if !out.EarlyExit || out.EventsSaved != 4 {
		t.Fatalf("latency response missing early-exit fields: %+v", out)
	}
	if eng.singleCalls() != 1 {
		t.Fatalf("latency mode: single calls = %d, want 1", eng.singleCalls())
	}

	resp, _ = post(`{"input":[2,0,0,0],"mode":"throughput"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("throughput mode: status %d", resp.StatusCode)
	}
	if eng.singleCalls() != 1 || !eng.sawInput(2) {
		t.Fatalf("throughput mode routed wrong: singles %d, batch saw: %v",
			eng.singleCalls(), eng.sawInput(2))
	}

	resp, _ = post(`{"input":[1,0,0,0],"mode":"warp"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode: status %d, want 400", resp.StatusCode)
	}
}

// engineCaps is the optional-capability set an Engine exposes.
type engineCaps struct{ single, frame, describer, chunks bool }

func capsOf(e Engine) engineCaps {
	var c engineCaps
	_, c.single = e.(SingleEngine)
	_, c.frame = e.(FrameEngine)
	_, c.describer = e.(EngineDescriber)
	_, c.chunks = e.(ChunkReporter)
	return c
}

// diffResult reports how a served prediction differs from the core
// result it must reproduce bit for bit ("" when identical).
func diffResult(got Prediction, want core.Result) string {
	switch {
	case got.Pred != want.Pred || got.Latency != want.Latency || got.TotalSpikes != want.TotalSpikes:
		return fmt.Sprintf("(pred, latency, spikes) = (%d, %d, %d), want (%d, %d, %d)",
			got.Pred, got.Latency, got.TotalSpikes, want.Pred, want.Latency, want.TotalSpikes)
	case got.EarlyExit != want.EarlyExit || got.EventsSaved != want.EventsSaved:
		return fmt.Sprintf("early exit (%v, %d), want (%v, %d)",
			got.EarlyExit, got.EventsSaved, want.EarlyExit, want.EventsSaved)
	case len(got.Potentials) != len(want.Potentials):
		return fmt.Sprintf("%d potentials, want %d", len(got.Potentials), len(want.Potentials))
	}
	for j := range want.Potentials {
		if math.Float64bits(got.Potentials[j]) != math.Float64bits(want.Potentials[j]) {
			return fmt.Sprintf("potential %d not bit-identical", j)
		}
	}
	return ""
}

// Every model engine must serve exactly what core.InferOne computes on
// its engine kind — through InferBatch, InferOne where present, and
// InferFrame with and without a timeline — including fault streams
// keyed by sample index (negative = none) and the early-exit telemetry,
// with all entry points running concurrently. Each type must also expose
// exactly its capability set: the clocked engine is batch-only with a
// chunk counter, the event and quant engines answer single samples.
func TestEnginesServeCoreResults(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	m, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Seed: 9, Drop: 0.1, Jitter: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool(core.ParallelOpts{Workers: 2})
	defer pool.Close()
	clocked, event := core.RunConfig{EarlyFire: true}, core.RunConfig{EarlyExit: true}
	batchOnly := engineCaps{frame: true, describer: true, chunks: true}
	single := engineCaps{single: true, frame: true, describer: true}
	cases := []struct {
		name string
		kind core.EngineKind
		run  core.RunConfig
		eng  Engine
		caps engineCaps
	}{
		{"clocked", core.EngineClocked, clocked, &TTFSEngine{Model: m, Run: clocked, Faults: inj}, batchOnly},
		{"clocked-pool", core.EngineClocked, clocked, &TTFSEngine{Model: m, Run: clocked, Faults: inj, Pool: pool}, batchOnly},
		{"event", core.EngineEvent, event, &EventEngine{Model: m, Run: event, Faults: inj}, single},
		{"quant", core.EngineQuant, clocked, &QuantEngine{Model: m, Run: clocked, Faults: inj}, single},
	}
	sampleLen := fx.Conv.Net.InLen
	const n, batch = 24, 6
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := capsOf(tc.eng); got != tc.caps {
				t.Fatalf("capabilities %+v, want %+v", got, tc.caps)
			}
			in := func(i int) []float64 { return fx.X.Data[i*sampleLen : (i+1)*sampleLen] }
			sample := func(i int) int {
				if i%3 == 0 {
					return -1
				}
				return i
			}
			want := func(i int, timeline bool) core.Result {
				cfg := tc.run
				cfg.CollectTimeline = timeline
				if s := sample(i); s >= 0 {
					cfg.Faults = inj.Sample(s)
				}
				return m.InferOne(in(i), cfg, core.InferOpts{Engine: tc.kind})
			}

			var mu sync.Mutex
			var errs []string
			fail := func(format string, args ...any) {
				mu.Lock()
				errs = append(errs, fmt.Sprintf(format, args...))
				mu.Unlock()
			}
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ref := want(i, false)
					if se, ok := tc.eng.(SingleEngine); ok {
						if d := diffResult(se.InferOne(in(i), sample(i)), ref); d != "" {
							fail("sample %d InferOne: %s", i, d)
						}
					}
					fe := tc.eng.(FrameEngine)
					fr := fe.InferFrame(in(i), sample(i), false)
					if d := diffResult(fr.Prediction, ref); d != "" {
						fail("sample %d InferFrame: %s", i, d)
					}
					if !slices.Equal(fr.StageSpikes, ref.Spikes) || fr.Timeline != nil {
						fail("sample %d InferFrame: stage spikes %v timeline %v, want %v and none", i, fr.StageSpikes, fr.Timeline, ref.Spikes)
					}
					ref = want(i, true)
					fr = fe.InferFrame(in(i), sample(i), true)
					if d := diffResult(fr.Prediction, ref); d != "" {
						fail("sample %d InferFrame with timeline: %s", i, d)
					}
					if !slices.Equal(fr.StageSpikes, ref.Spikes) || !slices.Equal(fr.Timeline, ref.Timeline) {
						fail("sample %d InferFrame with timeline: stage spikes or timeline differ", i)
					}
				}(i)
			}
			for lo := 0; lo < n; lo += batch {
				wg.Add(1)
				go func(lo int) {
					defer wg.Done()
					inputs := make([][]float64, batch)
					samples := make([]int, batch)
					for k := range inputs {
						inputs[k], samples[k] = in(lo+k), sample(lo+k)
					}
					for k, p := range tc.eng.InferBatch(inputs, samples) {
						if d := diffResult(p, want(lo+k, false)); d != "" {
							fail("sample %d InferBatch: %s", lo+k, d)
						}
					}
				}(lo)
			}
			wg.Wait()
			for _, e := range errs {
				t.Error(e)
			}
		})
	}
}

// A server over a real EventEngine must discover the capability and
// surface early exits end to end: direct route, early_exit_total and
// events_saved in /metrics, and the flags in the response body.
func TestServerEventEngineEndToEnd(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	m, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	eng := &EventEngine{Model: m, Run: core.RunConfig{EarlyExit: true}}
	s := New(eng, Options{MaxBatch: 1, DefaultMode: ModeLatency})
	defer s.Close()
	if s.single == nil {
		t.Fatal("EventEngine capability not discovered")
	}
	s.Warm()

	sampleLen := fx.Conv.Net.InLen
	exits := 0
	for i := 0; i < 20; i++ {
		in := fx.X.Data[i*sampleLen : (i+1)*sampleLen]
		pred, err := s.InferDirect(context.Background(), in, -1, fx.Labels[i])
		if err != nil {
			t.Fatal(err)
		}
		want := m.InferOne(in, core.RunConfig{}, core.InferOpts{})
		if pred.Pred != want.Pred {
			t.Fatalf("sample %d: served %d != clocked %d", i, pred.Pred, want.Pred)
		}
		if pred.EarlyExit {
			exits++
		}
	}
	if exits == 0 {
		t.Fatal("no early exits across 20 served samples")
	}
	snap := s.Metrics().Snapshot()
	if snap.EarlyExitTotal != uint64(exits) || snap.LatencyPathTotal != 20 {
		t.Fatalf("metrics early exit %d latency path %d, want %d and 20",
			snap.EarlyExitTotal, snap.LatencyPathTotal, exits)
	}
	if snap.EventsSaved == 0 {
		t.Fatal("events_saved stayed 0 despite early exits")
	}
}
