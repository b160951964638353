package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/testutil"
)

func postJSON(t *testing.T, client *http.Client, url string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp, buf.Bytes()
}

// Routing: each named model answers on its own path with its own
// engine, /v1/infer goes to the default, unknown models 404, the
// listing and the nested metrics expose every model independently.
func TestRegistryRouting(t *testing.T) {
	g := NewRegistry(RegistryOptions{})
	// Distinct class counts make the two engines answer differently for
	// the same input, so routing mistakes are visible in predictions.
	engA := &stubEngine{inLen: 4, classes: 3}
	engB := &stubEngine{inLen: 4, classes: 5}
	if _, err := g.Add("alpha", engA, Options{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add("beta", engB, Options{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.Add("alpha", engA, Options{}); err == nil {
		t.Fatal("duplicate model name accepted")
	}
	if _, err := g.Add("bad/name", engA, Options{}); err == nil {
		t.Fatal("model name with slash accepted")
	}

	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	client := ts.Client()

	// stub pred = input[0] mod classes: 4 mod 3 = 1, 4 mod 5 = 4.
	body := InferRequest{Input: input(4)}
	var out InferResponse

	resp, raw := postJSON(t, client, ts.URL+"/v1/models/alpha/infer", body, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("alpha: status %d: %s", resp.StatusCode, raw)
	}
	json.Unmarshal(raw, &out)
	if out.Pred != 1 {
		t.Fatalf("alpha pred = %d, want 1", out.Pred)
	}

	resp, raw = postJSON(t, client, ts.URL+"/v1/models/beta/infer", body, nil)
	json.Unmarshal(raw, &out)
	if resp.StatusCode != http.StatusOK || out.Pred != 4 {
		t.Fatalf("beta: status %d pred %d, want 200/4", resp.StatusCode, out.Pred)
	}

	// Default route: first Add wins.
	resp, raw = postJSON(t, client, ts.URL+"/v1/infer", body, nil)
	json.Unmarshal(raw, &out)
	if resp.StatusCode != http.StatusOK || out.Pred != 1 {
		t.Fatalf("default: status %d pred %d, want alpha's 200/1", resp.StatusCode, out.Pred)
	}

	resp, _ = postJSON(t, client, ts.URL+"/v1/models/gamma/infer", body, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", resp.StatusCode)
	}

	// Listing.
	lr, err := client.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list ModelList
	json.NewDecoder(lr.Body).Decode(&list)
	lr.Body.Close()
	if list.Default != "alpha" || len(list.Models) != 2 {
		t.Fatalf("list = %+v", list)
	}
	if list.Models[0].Name != "alpha" || !list.Models[0].Default || list.Models[0].Classes != 3 {
		t.Fatalf("list[0] = %+v", list.Models[0])
	}
	if list.Models[1].Name != "beta" || list.Models[1].Default || list.Models[1].Classes != 5 {
		t.Fatalf("list[1] = %+v", list.Models[1])
	}

	// Nested metrics: alpha saw 2 requests (named + default), beta 1.
	mr, err := client.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap RegistrySnapshot
	json.NewDecoder(mr.Body).Decode(&snap)
	mr.Body.Close()
	if snap.DefaultModel != "alpha" {
		t.Fatalf("default_model = %q", snap.DefaultModel)
	}
	if snap.Models["alpha"].Completed != 2 || snap.Models["beta"].Completed != 1 {
		t.Fatalf("completed alpha=%d beta=%d, want 2/1",
			snap.Models["alpha"].Completed, snap.Models["beta"].Completed)
	}

	// SetDefault reroutes /v1/infer.
	if err := g.SetDefault("beta"); err != nil {
		t.Fatal(err)
	}
	resp, raw = postJSON(t, client, ts.URL+"/v1/infer", body, nil)
	json.Unmarshal(raw, &out)
	if out.Pred != 4 {
		t.Fatalf("after SetDefault: pred %d, want beta's 4", out.Pred)
	}
	if err := g.SetDefault("gamma"); err == nil {
		t.Fatal("SetDefault accepted an unknown model")
	}
}

// The per-client token bucket must reject over-rate clients with 429 +
// Retry-After while other clients (different header) sail through, and
// the rejection must show up in the registry-level counter.
func TestRegistryRateLimit(t *testing.T) {
	g := NewRegistry(RegistryOptions{RatePerSec: 1, Burst: 2})
	clock := newFakeClock()
	g.limiter.now = clock.now
	if _, err := g.Add("m", newStubEngine(), Options{MaxBatch: 4}); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	client := ts.Client()

	hdr := map[string]string{"X-Client-ID": "alice"}
	body := InferRequest{Input: input(1)}
	for i := 0; i < 2; i++ {
		resp, raw := postJSON(t, client, ts.URL+"/v1/infer", body, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("burst request %d: status %d: %s", i, resp.StatusCode, raw)
		}
	}
	resp, _ := postJSON(t, client, ts.URL+"/v1/infer", body, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	// A different client is unaffected.
	resp, _ = postJSON(t, client, ts.URL+"/v1/infer", body, map[string]string{"X-Client-ID": "bob"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("independent client: status %d", resp.StatusCode)
	}
	if got := g.Snapshot().RateLimited; got != 1 {
		t.Fatalf("rate_limited = %d, want 1", got)
	}
	// Refill restores service.
	clock.advance(2 * time.Second)
	resp, _ = postJSON(t, client, ts.URL+"/v1/infer", body, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill request: status %d", resp.StatusCode)
	}
}

// Deadline-headroom shedding: once the model's rolling p99 batch
// latency is known, a request whose deadline is tighter gets 429 +
// Retry-After before enqueue; requests with workable deadlines and
// models with no latency history are untouched.
func TestRegistryDeadlineShedding(t *testing.T) {
	g := NewRegistry(RegistryOptions{})
	srv, err := g.Add("m", newStubEngine(), Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	client := ts.Client()

	// No latency history yet: even a 1ms deadline is admitted (it may
	// still expire in the queue — the point is it is not shed).
	resp, raw := postJSON(t, client, ts.URL+"/v1/infer", InferRequest{Input: input(1), TimeoutMs: 1}, nil)
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatalf("pre-history request shed: status %d: %s", resp.StatusCode, raw)
	}

	// Prime the window: batches take ~200ms.
	srv.Metrics().batchLatency(200 * time.Millisecond)

	resp, _ = postJSON(t, client, ts.URL+"/v1/infer", InferRequest{Input: input(1), TimeoutMs: 10}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("doomed deadline: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 429 without Retry-After")
	}
	snap := g.Snapshot()
	if snap.Models["m"].DeadlineShed != 1 {
		t.Fatalf("deadline_shed = %d, want 1", snap.Models["m"].DeadlineShed)
	}
	// A shed request never reached the model's queue: only the
	// pre-history request was accepted.
	if snap.Models["m"].Accepted != 1 {
		t.Fatalf("accepted = %d, want 1 (shed request must not be accepted)", snap.Models["m"].Accepted)
	}

	// Workable deadline: admitted and served.
	resp, _ = postJSON(t, client, ts.URL+"/v1/infer", InferRequest{Input: input(1), TimeoutMs: 5000}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workable deadline: status %d", resp.StatusCode)
	}
	// No deadline at all (MaxTimeout unset): admitted.
	resp, _ = postJSON(t, client, ts.URL+"/v1/infer", InferRequest{Input: input(1)}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("no-deadline request: status %d", resp.StatusCode)
	}

	// DisableShedding lets doomed deadlines through admission (they
	// then race the queue as before).
	g2 := NewRegistry(RegistryOptions{DisableShedding: true})
	srv2, err := g2.Add("m", newStubEngine(), Options{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	srv2.Metrics().batchLatency(200 * time.Millisecond)
	ts2 := httptest.NewServer(g2.Handler())
	defer ts2.Close()
	resp, _ = postJSON(t, ts2.Client(), ts2.URL+"/v1/infer", InferRequest{Input: input(1), TimeoutMs: 10}, nil)
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatal("shedding fired with DisableShedding set")
	}
}

// MaxTimeout turns "no deadline" into "MaxTimeout deadline", which
// re-arms shedding against clients that omit timeout_ms to dodge it.
func TestRegistryShedsClampedNoDeadlineRequests(t *testing.T) {
	g := NewRegistry(RegistryOptions{})
	srv, err := g.Add("m", newStubEngine(),
		Options{MaxBatch: 4, MaxTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	srv.Metrics().batchLatency(200 * time.Millisecond)
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	// Omitted timeout_ms clamps to MaxTimeout (50ms) < p99 (200ms): shed.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/infer", InferRequest{Input: input(1)}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("clamped no-deadline request: status %d, want 429", resp.StatusCode)
	}
	// An enormous client timeout clamps the same way.
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/infer", InferRequest{Input: input(1), TimeoutMs: 1 << 30}, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("clamped huge-deadline request: status %d, want 429", resp.StatusCode)
	}
}

// Close drains every model and flips the registry to 503.
func TestRegistryClose(t *testing.T) {
	g := NewRegistry(RegistryOptions{})
	if _, err := g.Add("m", newStubEngine(), Options{MaxBatch: 2}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	client := ts.Client()

	g.Close()
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after Close = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, client, ts.URL+"/v1/infer", InferRequest{Input: input(1)}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infer after Close = %d", resp.StatusCode)
	}
	if _, err := g.Add("late", newStubEngine(), Options{}); err == nil {
		t.Fatal("Add after Close succeeded")
	}
}

// Golden test: a model served through the registry — TTFS with fault
// injection and a baseline scheme side by side — must produce results
// bit-identical to a single-model serve.Server built with the same
// seed and fault config. Multi-model hosting changes routing, never
// results.
func TestRegistryGoldenMatchesSingleModel(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	m, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	faultCfg := fault.Config{Seed: 17, Drop: 0.12, Jitter: 2, ThresholdNoise: 0.04}
	run := core.RunConfig{EarlyFire: true}
	const steps = 24
	sampleLen := fx.Conv.Net.InLen
	const n = 12

	newTTFS := func() *TTFSEngine {
		inj, err := fault.New(faultCfg)
		if err != nil {
			t.Fatal(err)
		}
		return &TTFSEngine{Model: m, Run: run, Faults: inj}
	}
	newScheme := func() *SchemeEngine {
		inj, err := fault.New(faultCfg)
		if err != nil {
			t.Fatal(err)
		}
		return &SchemeEngine{Net: fx.Conv.Net, Scheme: coding.Burst{}, Steps: steps, Faults: inj}
	}
	opt := Options{MaxBatch: 8}

	g := NewRegistry(RegistryOptions{})
	if _, err := g.Add("ttfs", newTTFS(), opt); err != nil {
		t.Fatal(err)
	}
	if _, err := g.Add("burst", newScheme(), opt); err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()
	client := ts.Client()

	// Standalone single-model servers, same seed and fault config.
	single := map[string]*Server{
		"ttfs":  New(newTTFS(), opt),
		"burst": New(newScheme(), opt),
	}
	defer single["ttfs"].Close()
	defer single["burst"].Close()

	for _, name := range []string{"ttfs", "burst"} {
		for i := 0; i < n; i++ {
			in := fx.X.Data[i*sampleLen : (i+1)*sampleLen]
			sample := -1
			if i%2 == 1 { // mixed batch: odd samples carry faults
				sample = i
			}
			req := InferRequest{Input: in}
			if sample >= 0 {
				req.Sample = &sample
			}
			resp, raw := postJSON(t, client, fmt.Sprintf("%s/v1/models/%s/infer", ts.URL, name), req, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s sample %d: status %d: %s", name, i, resp.StatusCode, raw)
			}
			var got InferResponse
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			ref, err := single[name].Infer(context.Background(), in, sample, -1)
			if err != nil {
				t.Fatalf("%s sample %d standalone: %v", name, i, err)
			}
			if got.Pred != ref.Pred || got.LatencySteps != ref.Latency || got.TotalSpikes != ref.TotalSpikes {
				t.Fatalf("%s sample %d: registry (%d,%d,%d) != single-model (%d,%d,%d)",
					name, i, got.Pred, got.LatencySteps, got.TotalSpikes, ref.Pred, ref.Latency, ref.TotalSpikes)
			}
		}
	}
}
