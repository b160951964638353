package gateway

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
)

// streamBackend is a minimal streaming replica: it answers /readyz and
// runs NDJSON /v1/stream sessions, echoing one frame event per input
// frame (pred = input[0]). When failAfter > 0 the connection is cut
// abruptly before serving frame failAfter+1, simulating a backend that
// dies mid-session.
type streamBackend struct {
	ts        *httptest.Server
	failAfter int
	sessions  atomic.Int64
	frames    atomic.Int64
}

func newStreamBackend(t *testing.T, failAfter int) *streamBackend {
	t.Helper()
	b := &streamBackend{failAfter: failAfter}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	streamHandler := func(w http.ResponseWriter, r *http.Request) {
		b.sessions.Add(1)
		rc := http.NewResponseController(w)
		_ = rc.EnableFullDuplex()
		w.Header().Set("Content-Type", stream.FormatNDJSON.ContentType())
		w.WriteHeader(http.StatusOK)
		_ = rc.Flush()
		dec := stream.NewDecoder(r.Body, r.Header.Get("Content-Type"))
		enc := stream.NewEncoder(w, stream.FormatNDJSON)
		var f stream.Frame
		for seq := uint32(1); ; seq++ {
			if err := dec.Next(&f, 0); err != nil {
				return // EOF or client gone
			}
			if b.failAfter > 0 && int(seq) > b.failAfter {
				// Simulate the backend dying (kill -9): close the raw
				// socket. A handler panic won't do — the server's recovery
				// drains the request body first, which never ends on a
				// lockstep session.
				conn, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					conn.Close()
				}
				return
			}
			b.frames.Add(1)
			_ = enc.Encode(&stream.Event{Kind: stream.KindFrame, Seq: seq, Pred: int(f.Input[0])})
			_ = rc.Flush()
		}
	}
	mux.HandleFunc("POST /v1/stream", streamHandler)
	mux.HandleFunc("POST /v1/models/{name}/stream", streamHandler)
	b.ts = httptest.NewServer(mux)
	t.Cleanup(b.ts.Close)
	return b
}

// gateStream opens a lockstep NDJSON session through the gateway.
type gateStream struct {
	pw  *io.PipeWriter
	dec stream.EventDecoder
}

func openGateStream(t *testing.T, url string) *gateStream {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		pw.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close(); pw.Close() })
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream admission: status %d", resp.StatusCode)
	}
	dec, err := stream.NewEventDecoder(resp.Body, resp.Header.Get("Content-Type"))
	if err != nil {
		t.Fatal(err)
	}
	return &gateStream{pw: pw, dec: dec}
}

func (c *gateStream) send(t *testing.T, v float64) {
	t.Helper()
	if err := json.NewEncoder(c.pw).Encode(map[string]any{"input": []float64{v}}); err != nil {
		t.Fatalf("send frame: %v", err)
	}
}

// A session proxied through the gateway relays every event in order and
// lands in the fleet's stream ledger.
func TestGatewayStreamRelay(t *testing.T) {
	b := newStreamBackend(t, 0)
	g2, err := New(Options{Backends: []string{b.ts.URL}, ProbeInterval: 20 * time.Millisecond, ProbeTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g2.Close)
	gt := httptest.NewServer(g2.Handler())
	t.Cleanup(gt.Close)

	c := openGateStream(t, gt.URL)
	for i := 1; i <= 3; i++ {
		c.send(t, float64(i*10))
		var ev stream.Event
		if err := c.dec.Next(&ev); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if ev.Kind != stream.KindFrame || ev.Seq != uint32(i) || ev.Pred != i*10 {
			t.Fatalf("frame %d: kind %q seq %d pred %d", i, ev.Kind, ev.Seq, ev.Pred)
		}
	}
	c.pw.Close()
	var ev stream.Event
	if err := c.dec.Next(&ev); err != io.EOF {
		t.Fatalf("after clean close: ev %+v err %v, want EOF", ev, err)
	}
	snap := g2.Snapshot()
	if snap.StreamSessions != 1 || snap.StreamRetries != 0 {
		t.Fatalf("sessions/retries = %d/%d, want 1/0", snap.StreamSessions, snap.StreamRetries)
	}
	if b.frames.Load() != 3 {
		t.Fatalf("backend frames = %d, want 3", b.frames.Load())
	}
}

// A backend dying mid-session must surface as a terminal in-band retry
// event — already-delivered events stand, the connection is not just
// dropped, and the suggested delay is populated.
func TestGatewayStreamBackendDeathRetryEvent(t *testing.T) {
	b := newStreamBackend(t, 2)
	g, err := New(Options{Backends: []string{b.ts.URL}, ProbeInterval: 30 * time.Millisecond, ProbeTimeout: 250 * time.Millisecond, FailThreshold: 100})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gt := httptest.NewServer(g.Handler())
	t.Cleanup(gt.Close)

	c := openGateStream(t, gt.URL)
	for i := 1; i <= 2; i++ {
		c.send(t, float64(i))
		var ev stream.Event
		if err := c.dec.Next(&ev); err != nil || ev.Kind != stream.KindFrame {
			t.Fatalf("frame %d: ev %+v err %v", i, ev, err)
		}
	}
	c.send(t, 3) // backend aborts on this frame
	var ev stream.Event
	if err := c.dec.Next(&ev); err != nil {
		t.Fatalf("expected in-band retry event, got transport error %v", err)
	}
	if ev.Kind != stream.KindRetry {
		t.Fatalf("kind %q, want retry", ev.Kind)
	}
	if ev.RetryAfterMs <= 0 {
		t.Fatalf("retry event carries no reconnect delay: %+v", ev)
	}
	if g.Snapshot().StreamRetries != 1 {
		t.Fatalf("stream retries = %d, want 1", g.Snapshot().StreamRetries)
	}
}

// Regression: a backend that cannot be reached at all must also turn
// into a prompt retry event. Two deadlocks used to live here: the
// transport's failed round trip drained the client's open chunked body
// before returning from Do, and sendRetry's writeHeader drained it
// again before committing headers — both against a lockstep client
// that sends nothing until it reads a response.
func TestGatewayStreamConnectFailRetryEvent(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	g, err := New(Options{Backends: []string{deadURL}, ProbeInterval: 50 * time.Millisecond, ProbeTimeout: 250 * time.Millisecond, FailThreshold: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gt := httptest.NewServer(g.Handler())
	t.Cleanup(gt.Close)

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, gt.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")

	type outcome struct {
		ev  stream.Event
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- outcome{err: err}
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			done <- outcome{err: io.EOF}
			return
		}
		dec, err := stream.NewEventDecoder(resp.Body, resp.Header.Get("Content-Type"))
		if err != nil {
			done <- outcome{err: err}
			return
		}
		var ev stream.Event
		err = dec.Next(&ev)
		done <- outcome{ev: ev, err: err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatalf("no in-band retry event: %v", out.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry event never arrived: the gateway is deadlocked draining the open request body")
	}
	if g.Snapshot().StreamRetries != 1 {
		t.Fatalf("stream retries = %d, want 1", g.Snapshot().StreamRetries)
	}
}

// Regression: a client that sends a malformed frame and then holds its
// body open must not cost the backend its health. The backend ends
// such a session with a terminal error event and, once it gives up
// waiting for the body, a complete response; the gateway relays that
// as a clean session end — no retry event inviting the client to
// resend the frame, and no failure counted against a healthy backend.
func TestGatewayStreamMalformedFrameHeldBody(t *testing.T) {
	_, backend := newServeBackend(t, abuseEngine{}, serve.Options{MaxBatch: 2})
	g, err := New(Options{Backends: []string{backend.URL}, ProbeInterval: 20 * time.Millisecond, ProbeTimeout: 250 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	gt := httptest.NewServer(g.Handler())
	t.Cleanup(gt.Close)

	c := openGateStream(t, gt.URL)
	if _, err := io.WriteString(c.pw, "this is not json\n"); err != nil {
		t.Fatal(err)
	}
	var ev stream.Event
	if err := c.dec.Next(&ev); err != nil || ev.Kind != stream.KindError {
		t.Fatalf("want terminal error event, got ev %+v err %v", ev, err)
	}
	// Hold the body open: the backend gives up on it after a second.
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		var ev stream.Event
		err := c.dec.Next(&ev)
		if err == nil {
			err = errors.New("unexpected " + string(ev.Kind) + " event")
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Fatalf("after the error event: %v, want a clean end of stream", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("session never ended while the client held its body open")
	}
	if d := time.Since(start); d < 500*time.Millisecond {
		t.Fatalf("session ended after %v, before the client's body was given up on", d)
	}
	c.pw.Close()
	if n := g.Snapshot().StreamRetries; n != 0 {
		t.Fatalf("stream retries = %d, want 0", n)
	}
	b := g.backends[0]
	if n := b.consecFails.Load(); n != 0 {
		t.Fatalf("backend consecutive failures = %d, want 0 (last error %q)", n, b.lastErrString())
	}
}
