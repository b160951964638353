package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/testutil"
)

// versionedEngine is a stubEngine whose results encode which engine
// produced them (Latency == version), so swap tests can tell old and
// new apart — and spot a response mixing the two.
type versionedEngine struct {
	stubEngine
	version int
}

func newVersionedEngine(v int) *versionedEngine {
	return &versionedEngine{stubEngine: stubEngine{inLen: 4, classes: 3}, version: v}
}

func (e *versionedEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	preds := e.stubEngine.InferBatch(inputs, samples)
	for i := range preds {
		preds[i].Latency = e.version
	}
	return preds
}

// A swap must be invisible to concurrent clients: no request fails, no
// request observes anything but wholly the old or wholly the new
// engine, and the model's accounting identity — with retired counters
// folded in — survives every cutover.
func TestRegistrySwapAtomicUnderLoad(t *testing.T) {
	g := NewRegistry(RegistryOptions{})
	if _, err := g.Add("m", newVersionedEngine(0), Options{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	const (
		clients = 8
		perC    = 60
		swaps   = 5
	)
	var wg sync.WaitGroup
	var served [1 + swaps]atomic.Int64
	errCh := make(chan error, clients*perC)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				srv := g.Get("m")
				p, err := srv.Infer(context.Background(), input(float64(i%3)), -1, -1)
				if err != nil {
					// ErrClosed here is the race the HTTP path resolves
					// by chasing the pointer; at the API level a retry
					// against the current server must succeed.
					if err != ErrClosed {
						errCh <- fmt.Errorf("client %d: %v", c, err)
						return
					}
					if p, err = g.Get("m").Infer(context.Background(), input(float64(i%3)), -1, -1); err != nil {
						errCh <- fmt.Errorf("client %d retry: %v", c, err)
						return
					}
				}
				if p.Latency < 0 || p.Latency > swaps {
					errCh <- fmt.Errorf("client %d: impossible engine version %d", c, p.Latency)
					return
				}
				if p.Pred != (i%3)%3 {
					errCh <- fmt.Errorf("client %d: pred %d for input %d", c, p.Pred, i%3)
					return
				}
				served[p.Latency].Add(1)
			}
		}(c)
	}
	for v := 1; v <= swaps; v++ {
		time.Sleep(2 * time.Millisecond)
		if err := g.Swap("m", newVersionedEngine(v), false); err != nil {
			t.Fatalf("swap %d: %v", v, err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	snap := g.Snapshot().Models["m"]
	if snap.Swaps != swaps {
		t.Fatalf("swaps counter %d, want %d", snap.Swaps, swaps)
	}
	var total int64
	for v := range served {
		total += served[v].Load()
	}
	if total != clients*perC {
		t.Fatalf("served %d responses, want %d", total, clients*perC)
	}
	// Accounting identity across every cutover: the folded totals must
	// cover all traffic, whichever engine served it.
	if snap.Accepted != snap.Completed+snap.Expired+snap.Failed {
		t.Fatalf("identity broken: accepted %d != completed %d + expired %d + failed %d",
			snap.Accepted, snap.Completed, snap.Expired, snap.Failed)
	}
	if snap.Completed != uint64(clients*perC) {
		t.Fatalf("completed %d, want %d", snap.Completed, clients*perC)
	}
}

// The HTTP path must hide the swap race entirely: requests racing the
// cutover are chased onto the replacement server, never answered 503.
func TestRegistrySwapInvisibleOverHTTP(t *testing.T) {
	g := NewRegistry(RegistryOptions{})
	if _, err := g.Add("m", newVersionedEngine(0), Options{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	client := ts.Client()

	const n = 200
	var wg sync.WaitGroup
	errCh := make(chan error, n)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				resp, raw := postJSON(t, client, ts.URL+"/v1/models/m/infer", InferRequest{Input: input(1)}, nil)
				if resp.StatusCode != http.StatusOK {
					errCh <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
					return
				}
			}
		}()
	}
	for v := 1; v <= 3; v++ {
		time.Sleep(2 * time.Millisecond)
		if err := g.Swap("m", newVersionedEngine(v), false); err != nil {
			t.Fatalf("swap %d: %v", v, err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// Golden-checked swap of an identical model must succeed, and serving
// after the cutover must stay bit-identical to direct evaluation on
// the replacement engine.
func TestRegistrySwapGoldenBitIdentity(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	mOld, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	mNew, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := core.RunConfig{EarlyFire: true}

	g := NewRegistry(RegistryOptions{})
	if _, err := g.Add("lenet", &TTFSEngine{Model: mOld, Run: run},
		Options{MaxBatch: 8}); err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	if err := g.Swap("lenet", &TTFSEngine{Model: mNew, Run: run}, true); err != nil {
		t.Fatalf("golden swap of identical model rejected: %v", err)
	}

	sampleLen := fx.Conv.Net.InLen
	srv := g.Get("lenet")
	for i := 0; i < 8; i++ {
		in := fx.X.Data[i*sampleLen : (i+1)*sampleLen]
		got, err := srv.Infer(context.Background(), in, -1, -1)
		if err != nil {
			t.Fatal(err)
		}
		ref := mNew.InferOne(in, run, core.InferOpts{})
		if got.Pred != ref.Pred || got.Latency != ref.Latency || got.TotalSpikes != ref.TotalSpikes {
			t.Fatalf("sample %d after swap: served (%d,%d,%d) != direct (%d,%d,%d)",
				i, got.Pred, got.Latency, got.TotalSpikes, ref.Pred, ref.Latency, ref.TotalSpikes)
		}
		for j := range ref.Potentials {
			if math.Float64bits(got.Potentials[j]) != math.Float64bits(ref.Potentials[j]) {
				t.Fatalf("sample %d: potential %d not bit-identical after swap", i, j)
			}
		}
	}
}

// A golden check against a behaviorally different candidate must fail
// the swap and keep the old engine serving, untouched.
func TestRegistrySwapGoldenRejection(t *testing.T) {
	g := NewRegistry(RegistryOptions{})
	if _, err := g.Add("m", newVersionedEngine(1), Options{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	before := g.Get("m")

	err := g.Swap("m", newVersionedEngine(2), true)
	if err == nil {
		t.Fatal("golden check passed for engines with different results")
	}
	if !strings.Contains(err.Error(), "old engine kept") {
		t.Fatalf("unexpected error: %v", err)
	}
	if g.Get("m") != before {
		t.Fatal("server replaced despite failed golden check")
	}
	p, err := g.Get("m").Infer(context.Background(), input(1), -1, -1)
	if err != nil || p.Latency != 1 {
		t.Fatalf("old engine not serving after rejected swap: %v %+v", err, p)
	}
	if got := g.Snapshot().Models["m"].Swaps; got != 0 {
		t.Fatalf("swaps counter %d after rejected swap, want 0", got)
	}
}

// A candidate that changes the request contract (input length or class
// count) must be rejected regardless of golden checking.
func TestRegistrySwapShapeMismatch(t *testing.T) {
	g := NewRegistry(RegistryOptions{})
	if _, err := g.Add("m", &stubEngine{inLen: 4, classes: 3}, Options{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if err := g.Swap("m", &stubEngine{inLen: 8, classes: 3}, false); err == nil {
		t.Fatal("swap accepted engine with different input length")
	}
	if err := g.Swap("m", &stubEngine{inLen: 4, classes: 5}, false); err == nil {
		t.Fatal("swap accepted engine with different class count")
	}
	if err := g.Swap("nope", &stubEngine{inLen: 4, classes: 3}, false); err == nil {
		t.Fatal("swap accepted unknown model")
	}
}

// The swap endpoint: disabled (501) without a BuildEngine hook, full
// build-check-cutover loop with one, input validation on the way.
func TestRegistrySwapEndpoint(t *testing.T) {
	g := NewRegistry(RegistryOptions{})
	if _, err := g.Add("m", newVersionedEngine(1), Options{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	client := ts.Client()

	resp, _ := postJSON(t, client, ts.URL+"/v1/models/m/swap", SwapRequest{Source: "x"}, nil)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("swap without BuildEngine: status %d, want 501", resp.StatusCode)
	}

	g2 := NewRegistry(RegistryOptions{
		BuildEngine: func(model string, req SwapRequest) (Engine, error) {
			switch req.Source {
			case "same":
				return newVersionedEngine(1), nil
			case "different":
				return newVersionedEngine(9), nil
			}
			return nil, fmt.Errorf("unknown source %q", req.Source)
		},
	})
	if _, err := g2.Add("m", newVersionedEngine(1), Options{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	ts2 := httptest.NewServer(g2.Handler())
	defer ts2.Close()
	client2 := ts2.Client()

	resp, raw := postJSON(t, client2, ts2.URL+"/v1/models/m/swap", SwapRequest{Source: "same", GoldenCheck: true}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("golden swap: status %d: %s", resp.StatusCode, raw)
	}
	resp, raw = postJSON(t, client2, ts2.URL+"/v1/models/m/swap", SwapRequest{Source: "different", GoldenCheck: true}, nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rejected golden swap: status %d, want 409: %s", resp.StatusCode, raw)
	}
	resp, _ = postJSON(t, client2, ts2.URL+"/v1/models/nope/swap", SwapRequest{Source: "same"}, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, client2, ts2.URL+"/v1/models/m/swap", SwapRequest{}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing source: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, client2, ts2.URL+"/v1/models/m/swap", SwapRequest{Source: "nope"}, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("builder error: status %d, want 400", resp.StatusCode)
	}
	if got := g2.Snapshot().Models["m"].Swaps; got != 1 {
		t.Fatalf("swaps counter %d, want 1", got)
	}
}

// Liveness vs readiness: /healthz is 200 from construction, /readyz
// answers 503 until the owner warms the model and calls SetReady, and
// 503 again on Close.
func TestRegistryReadiness(t *testing.T) {
	g := NewRegistry(RegistryOptions{})
	if _, err := g.Add("m", newStubEngine(), Options{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	client := ts.Client()

	get := func(path string) int {
		t.Helper()
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz before warmup: %d, want 200", got)
	}
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz before warmup: %d, want 503", got)
	}
	if g.Ready() {
		t.Fatal("Ready() true before warmup")
	}
	g.Get("m").Warm()
	g.SetReady(true)
	if got := get("/readyz"); got != http.StatusOK {
		t.Fatalf("readyz after warmup: %d, want 200", got)
	}
	if !g.Ready() {
		t.Fatal("Ready() false after warmup")
	}
	g.SetReady(false)
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after SetReady(false): %d, want 503", got)
	}
	g.SetReady(true)
	g.Close()
	if got := get("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz after Close: %d, want 503", got)
	}
	if got := get("/healthz"); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close: %d, want 503", got)
	}
	if g.Ready() {
		t.Fatal("Ready() true after Close")
	}
}

// cumulative names the counters a registry model carries across
// hot-swaps by their /metrics keys.
func cumulative(s Snapshot) map[string]uint64 {
	return map[string]uint64{
		"requests_accepted":   s.Accepted,
		"requests_rejected":   s.Rejected,
		"requests_expired":    s.Expired,
		"requests_failed":     s.Failed,
		"requests_completed":  s.Completed,
		"total_spikes":        s.TotalSpikes,
		"early_exit_total":    s.EarlyExitTotal,
		"events_saved":        s.EventsSaved,
		"latency_path_total":  s.LatencyPathTotal,
		"stream_sessions":     s.StreamSessions,
		"stream_frames_total": s.StreamFrames,
	}
}

// A /metrics scrape landing in a swap's drain window — after the
// cutover, before the old server's counters fold into the retired
// totals — must still count the retiring server: per-model counters
// never go backwards and requests in flight on the old engine stay
// visible as accepted. Every cumulative counter crosses the swap
// unchanged, in the drain window and after the fold.
func TestRegistrySnapshotCountsDrainingServer(t *testing.T) {
	old := newSingleStubEngine()
	old.enter = make(chan struct{}, 4)
	old.release = make(chan struct{}, 4)
	g := NewRegistry(RegistryOptions{})
	srv, err := g.Add("m", syncStubEngine{old}, Options{MaxBatch: 1, Workers: 1, QueueSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	ctx := context.Background()

	// Tick every cumulative counter on the old server: a stream frame,
	// a direct request (latency path, early exit, events saved), a
	// failure, an expiry, and a rejection behind a full queue.
	c := openStream(t, ts.URL, "", false)
	c.send(t, false, input(1))
	if ev := c.next(t); ev.Kind != stream.KindFrame {
		t.Fatalf("stream event kind %q", ev.Kind)
	}
	c.pw.Close()
	waitStreamIdle(t, srv)
	if _, err := srv.InferDirect(ctx, input(2), -1, -1); err != nil {
		t.Fatal(err)
	}
	old.panicOnce = true
	if _, err := srv.InferDirect(ctx, input(2), -1, -1); err == nil {
		t.Fatal("panicking engine: want an error")
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := srv.Infer(dead, input(2), -1, -1); err == nil {
		t.Fatal("dead context: want an error")
	}
	// park runs one queued request in the background, reporting its
	// outcome on the returned channel.
	park := func(v float64) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := srv.Infer(ctx, input(v), -1, -1)
			done <- err
		}()
		return done
	}
	first := park(3)
	<-old.enter // the only worker is busy
	accepted := srv.Metrics().Snapshot().Accepted
	queued := park(4)
	for srv.Metrics().Snapshot().Accepted == accepted {
		time.Sleep(time.Millisecond) // until the queue's one slot is taken
	}
	if _, err := srv.Infer(ctx, input(5), -1, -1); err != ErrOverloaded {
		t.Fatalf("full queue: err = %v, want ErrOverloaded", err)
	}
	old.release <- struct{}{}
	<-old.enter
	old.release <- struct{}{}
	for _, done := range []chan error{first, queued} {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	// Park one request inside the old engine's InferBatch.
	inferDone := park(6)
	<-old.enter
	before := g.Snapshot().Models["m"].Snapshot
	for k, v := range cumulative(before) {
		if v == 0 {
			t.Errorf("%s = 0 before the swap; the test must tick every counter", k)
		}
	}
	check := func(when string, want Snapshot) {
		t.Helper()
		got := cumulative(g.Snapshot().Models["m"].Snapshot)
		for k, v := range cumulative(want) {
			if got[k] != v {
				t.Errorf("%s: %s = %d, want %d", when, k, got[k], v)
			}
		}
	}

	// Cut over while that request is still in flight; the swap's drain
	// blocks on the gated batch, holding the drain window open.
	swapDone := make(chan error, 1)
	go func() { swapDone <- g.Swap("m", newStubEngine(), false) }()
	deadline := time.Now().Add(3 * time.Second)
	for g.Snapshot().Models["m"].Swaps != 1 {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the cutover")
		}
		time.Sleep(time.Millisecond)
	}

	// Mid-drain scrape: the old server is neither live nor retired yet,
	// but everything it counted — the parked request included — must
	// still be visible.
	check("drain window", before)

	old.release <- struct{}{}
	if err := <-inferDone; err != nil {
		t.Fatalf("infer on the draining server: %v", err)
	}
	if err := <-swapDone; err != nil {
		t.Fatalf("swap: %v", err)
	}
	// After the fold only the parked request's completion has moved.
	want := before
	want.Completed++
	want.TotalSpikes += 10
	check("after drain", want)
	snap := g.Snapshot().Models["m"]
	if snap.Accepted != snap.Completed+snap.Expired+snap.Failed {
		t.Fatalf("identity broken: accepted %d != completed %d + expired %d + failed %d",
			snap.Accepted, snap.Completed, snap.Expired, snap.Failed)
	}
}
