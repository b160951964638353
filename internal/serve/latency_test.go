package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
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

// A panicking single-sample engine must fail only that request.
func TestInferDirectPanicContained(t *testing.T) {
	eng := newSingleStubEngine()
	eng.panicOnce = true
	s := New(eng, Options{MaxBatch: 1})
	defer s.Close()
	if _, err := s.InferDirect(context.Background(), input(1), -1, -1); err == nil || !strings.Contains(err.Error(), "engine panic") {
		t.Fatalf("err = %v, want engine panic", err)
	}
	pred, err := s.InferDirect(context.Background(), input(4), -1, -1)
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
}

// InferDirect must reject with ErrClosed once Close has started, and an
// already-expired context must be counted accepted+expired, exactly
// like the queued path.
func TestInferDirectClosedAndExpired(t *testing.T) {
	eng := newSingleStubEngine()
	s := New(eng, Options{MaxBatch: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.InferDirect(ctx, input(1), -1, -1); err != context.Canceled {
		t.Fatalf("dead context: err = %v, want context.Canceled", err)
	}
	s.Close()
	if _, err := s.InferDirect(context.Background(), input(1), -1, -1); err != ErrClosed {
		t.Fatalf("after close: err = %v, want ErrClosed", err)
	}
	snap := s.Metrics().Snapshot()
	if snap.Accepted != 1 || snap.Expired != 1 {
		t.Fatalf("accepted %d expired %d, want 1/1", snap.Accepted, snap.Expired)
	}
}

// Over HTTP, mode=latency must take the direct path, mode=throughput
// the queue, and an unknown mode must 400 before touching the engine;
// the response must surface the early-exit telemetry.
func TestHTTPModeRouting(t *testing.T) {
	eng := newSingleStubEngine()
	s := New(eng, Options{MaxBatch: 8})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

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

// EventEngine served directly must be bit-identical to calling the core
// event engine per sample — including fault streams keyed by sample and
// the early-exit telemetry — and safe under concurrent InferOne.
func TestEventEngineServesCoreResults(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	m, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Seed: 9, Drop: 0.1, Jitter: 1})
	if err != nil {
		t.Fatal(err)
	}
	run := core.RunConfig{EarlyExit: true}
	eng := &EventEngine{Model: m, Run: run, Faults: inj}
	sampleLen := fx.Conv.Net.InLen

	const n = 24
	var wg sync.WaitGroup
	errs := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := fx.X.Data[i*sampleLen : (i+1)*sampleLen]
			cfg := run
			cfg.Faults = inj.Sample(i)
			want := m.InferOne(in, cfg, core.InferOpts{Engine: core.EngineEvent})
			got := eng.InferOne(in, i)
			switch {
			case got.Pred != want.Pred || got.Latency != want.Latency || got.TotalSpikes != want.TotalSpikes:
				errs[i] = "prediction fields differ"
			case got.EarlyExit != want.EarlyExit || got.EventsSaved != want.EventsSaved:
				errs[i] = "early-exit telemetry differs"
			default:
				for j := range want.Potentials {
					if math.Float64bits(got.Potentials[j]) != math.Float64bits(want.Potentials[j]) {
						errs[i] = "potentials not bit-identical"
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("sample %d: %s", i, e)
		}
	}

	// The batch entry point must agree with the single-sample one.
	inputs := make([][]float64, 6)
	samples := make([]int, 6)
	for i := range inputs {
		inputs[i] = fx.X.Data[i*sampleLen : (i+1)*sampleLen]
		samples[i] = i
	}
	preds := eng.InferBatch(inputs, samples)
	for i := range inputs {
		one := eng.InferOne(inputs[i], i)
		if preds[i].Pred != one.Pred || preds[i].Latency != one.Latency ||
			preds[i].EarlyExit != one.EarlyExit || preds[i].EventsSaved != one.EventsSaved {
			t.Fatalf("sample %d: batch %+v != single %+v", i, preds[i], one)
		}
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
	if s.Single() == nil {
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
