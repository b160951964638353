package gateway

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/wire"
)

// abuseEngine is a minimal serve.Engine for the wire abuse tests: the
// backend must be a real serve Registry (not a stub mux) so the test
// covers the gateway's buffer-and-replay proxying composed with the
// serve layer's frame validation and admission ledger.
type abuseEngine struct{}

func (abuseEngine) InLen() int   { return 4 }
func (abuseEngine) Classes() int { return 3 }
func (abuseEngine) InferBatch(inputs [][]float64, samples []int) []serve.Prediction {
	preds := make([]serve.Prediction, len(inputs))
	for i := range inputs {
		preds[i] = serve.Prediction{Pred: 1, Latency: 2, TotalSpikes: 3}
	}
	return preds
}

// newServeBackend hosts eng as the default model of a ready serve
// Registry behind a test server, as snnserve deploys it, and returns
// the model's Server (for its ledger) and the test server. Both close
// at cleanup.
func newServeBackend(t *testing.T, eng serve.Engine, opt serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	reg := serve.NewRegistry(serve.RegistryOptions{})
	t.Cleanup(reg.Close)
	srv, err := reg.Add("m", eng, opt)
	if err != nil {
		t.Fatal(err)
	}
	reg.SetReady(true)
	backend := httptest.NewServer(reg.Handler())
	t.Cleanup(backend.Close)
	return srv, backend
}

// TestWireAbuseViaGateway sends malformed binary frames through the
// gateway to a real serve backend and pins the composed behavior:
// oversized bodies die at the gateway with 413 before touching any
// backend, malformed frames are forwarded verbatim and come back as the
// backend's 400 (client errors are not retried onto other replicas),
// good frames return a valid binary response — and both the gateway's
// and the backend's accounting stay exact throughout.
func TestWireAbuseViaGateway(t *testing.T) {
	srv, backend := newServeBackend(t, abuseEngine{}, serve.Options{MaxBatch: 2})

	g, err := New(Options{
		Backends:      []string{backend.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	ts := httptest.NewServer(g.Handler())
	defer ts.Close()

	good := wire.AppendRequest(nil, wire.Request{Lane: wire.LaneF32, Sample: -1, Label: -1},
		[]float64{1, 2, 3, 4})
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'X'
	badVersion := append([]byte(nil), good...)
	badVersion[2] = 9

	post := func(body []byte) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/infer", wire.ContentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Good frame end to end: the response must be a parseable binary
	// frame with the stub engine's prediction.
	resp := post(good)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("good frame via gateway: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("good frame via gateway: Content-Type %q", ct)
	}
	frame, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	wresp, err := wire.DecodeResponse(frame)
	if err != nil {
		t.Fatalf("response frame via gateway: %v", err)
	}
	if wresp.Pred != 1 || wresp.LatencySteps != 2 || wresp.TotalSpikes != 3 {
		t.Fatalf("proxied response = %+v", wresp)
	}

	// Malformed frames: the backend's 400 must pass through unmodified.
	for _, tc := range []struct {
		name string
		body []byte
	}{
		{"bad magic", badMagic},
		{"bad version", badVersion},
		{"truncated header", good[:10]},
		{"truncated payload", good[:len(good)-4]},
	} {
		resp := post(tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s via gateway: status %d, want 400", tc.name, resp.StatusCode)
		}
	}

	// Oversized: rejected by the gateway itself, before any forwarding.
	before := srv.Metrics().Snapshot()
	resp = post(make([]byte, 9<<20))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized via gateway: status %d, want 413", resp.StatusCode)
	}

	// Backend ledger: only the good frame was admitted; the 400s were
	// rejected pre-admission and the oversized body never arrived.
	bs := srv.Metrics().Snapshot()
	if bs.Accepted != before.Accepted || bs.Accepted != 1 || bs.Completed != 1 {
		t.Fatalf("backend accepted/completed = %d/%d, want 1/1", bs.Accepted, bs.Completed)
	}
	if bs.Accepted != bs.Completed+bs.Expired+bs.Failed {
		t.Fatalf("backend ledger drift: %+v", bs)
	}

	// Gateway ledger: the oversized request was turned away before
	// acceptance; everything else (good + 4 malformed, all forwarded)
	// completed. accepted = completed + failed + shed must hold exactly.
	gs := g.Snapshot()
	if gs.Accepted != 5 || gs.Completed != 5 || gs.Failed != 0 || gs.Shed != 0 {
		t.Fatalf("gateway ledger = accepted %d completed %d failed %d shed %d, want 5/5/0/0",
			gs.Accepted, gs.Completed, gs.Failed, gs.Shed)
	}
}
