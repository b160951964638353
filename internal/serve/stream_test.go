package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/wire"
)

// stubFrameEngine adds the streaming capability to stubEngine:
// deterministic per-frame results with stage spikes and an optional
// timeline, plus a poison input (input[0] == 13) that panics mid-frame
// to exercise the per-frame error path.
type stubFrameEngine struct {
	*stubEngine
}

func (e *stubFrameEngine) InferFrame(input []float64, sample int, timeline bool) FrameResult {
	if input[0] == 13 {
		panic("poison frame")
	}
	fr := FrameResult{
		Prediction: Prediction{
			Pred:        int(input[0]) % e.classes,
			Latency:     5,
			TotalSpikes: 10,
			Potentials:  []float64{input[0], 0, 0},
		},
		StageSpikes: []int{3, 7},
	}
	if timeline {
		fr.Timeline = []core.TimedPred{{Step: 1, Pred: 0}, {Step: 5, Pred: fr.Pred}}
	}
	return fr
}

func newStreamServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	_, s, ts := newTestRegistry(t, &stubFrameEngine{newStubEngine()}, Options{MaxBatch: 2})
	return s, ts
}

// streamClient is a lockstep test session: frames go out on a pipe, and
// Do has already returned with the committed 200 + event stream.
type streamClient struct {
	pw   *io.PipeWriter
	resp *http.Response
	dec  stream.EventDecoder
	buf  []byte
}

// openStream starts a session. binary selects the x-t2f lane both ways;
// query is appended verbatim (e.g. "?timeline=1").
func openStream(t *testing.T, url, query string, binary bool) *streamClient {
	t.Helper()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/stream"+query, pr)
	if err != nil {
		t.Fatal(err)
	}
	if binary {
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Accept", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Accept", "application/x-ndjson")
	}
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
	return &streamClient{pw: pw, resp: resp, dec: dec}
}

func (c *streamClient) send(t *testing.T, binary bool, input []float64) {
	t.Helper()
	var err error
	if binary {
		c.buf = wire.AppendRequest(c.buf[:0], wire.Request{Lane: wire.LaneF32, Sample: -1, Label: -1}, input)
		_, err = c.pw.Write(c.buf)
	} else {
		err = json.NewEncoder(c.pw).Encode(map[string]any{"input": input})
	}
	if err != nil {
		t.Fatalf("send frame: %v", err)
	}
}

func (c *streamClient) next(t *testing.T) stream.Event {
	t.Helper()
	var ev stream.Event
	if err := c.dec.Next(&ev); err != nil {
		t.Fatalf("next event: %v", err)
	}
	return ev
}

func checkLedger(t *testing.T, s *Server) Snapshot {
	t.Helper()
	snap := s.Metrics().Snapshot()
	if snap.Accepted != snap.Completed+snap.Expired+snap.Failed {
		t.Fatalf("ledger drift: accepted %d != completed %d + expired %d + failed %d",
			snap.Accepted, snap.Completed, snap.Expired, snap.Failed)
	}
	return snap
}

// waitStreamIdle polls until every session has detached its gauge (the
// handler finishes a beat after the client sees the last event).
func waitStreamIdle(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.Metrics().Snapshot().StreamActive != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("stream sessions never detached: active = %d", s.Metrics().Snapshot().StreamActive)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Streamed predictions must be bit-identical to one-shot /v1/infer for
// the same inputs, with the session ledger (sessions, frames, active
// gauge) and the admission identity exact.
func TestStreamMatchesOneShot(t *testing.T) {
	s, ts := newStreamServer(t)
	inputs := [][]float64{input(1), input(2), input(5), input(8)}

	c := openStream(t, ts.URL, "", false)
	streamed := make([]int, len(inputs))
	for i, in := range inputs {
		c.send(t, false, in)
		ev := c.next(t)
		if ev.Kind != stream.KindFrame || ev.Seq != uint32(i+1) {
			t.Fatalf("event %d: kind %q seq %d", i, ev.Kind, ev.Seq)
		}
		if len(ev.StageSpikes) != 2 {
			t.Fatalf("event %d: stage spikes %v", i, ev.StageSpikes)
		}
		streamed[i] = ev.Pred
	}
	c.pw.Close() // clean end of session

	for i, in := range inputs {
		body, _ := json.Marshal(map[string]any{"input": in})
		resp, err := http.Post(ts.URL+"/v1/infer", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Pred int `json:"pred"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if out.Pred != streamed[i] {
			t.Fatalf("frame %d: stream pred %d, one-shot pred %d", i, streamed[i], out.Pred)
		}
	}

	waitStreamIdle(t, s)
	snap := checkLedger(t, s)
	if snap.StreamSessions != 1 || snap.StreamFrames != uint64(len(inputs)) {
		t.Fatalf("sessions/frames = %d/%d, want 1/%d", snap.StreamSessions, snap.StreamFrames, len(inputs))
	}
}

// The binary lane round-trips events with stage spikes and, on request,
// the argmax timeline.
func TestStreamBinaryTimeline(t *testing.T) {
	s, ts := newStreamServer(t)
	c := openStream(t, ts.URL, "?timeline=1", true)
	c.send(t, true, input(7))
	ev := c.next(t)
	if ev.Kind != stream.KindFrame || ev.Seq != 1 {
		t.Fatalf("kind %q seq %d", ev.Kind, ev.Seq)
	}
	if len(ev.StageSpikes) != 2 || ev.StageSpikes[0] != 3 || ev.StageSpikes[1] != 7 {
		t.Fatalf("stage spikes %v", ev.StageSpikes)
	}
	if len(ev.Timeline) != 2 || ev.Timeline[1].Pred != ev.Pred {
		t.Fatalf("timeline %v (pred %d)", ev.Timeline, ev.Pred)
	}
	c.pw.Close()
	waitStreamIdle(t, s)
	checkLedger(t, s)
}

// BeginDrain with a session open must deliver a terminal drain event
// carrying the last acked frame, not cut the connection.
func TestStreamDrainEvent(t *testing.T) {
	s, ts := newStreamServer(t)
	c := openStream(t, ts.URL, "", false)
	c.send(t, false, input(1))
	c.next(t)
	c.send(t, false, input(2))
	c.next(t)

	s.BeginDrain()
	ev := c.next(t)
	if ev.Kind != stream.KindDrain {
		t.Fatalf("kind %q, want drain", ev.Kind)
	}
	if ev.Seq != 2 {
		t.Fatalf("drain seq %d, want 2 (last acked)", ev.Seq)
	}
	var probe stream.Event
	if err := c.dec.Next(&probe); err == nil {
		t.Fatalf("event after terminal drain: %+v", probe)
	}
	waitStreamIdle(t, s)
	checkLedger(t, s)
}

// A frame the engine fails on (panic mid-inference) must produce an
// in-band error event and leave the session serving; the failure lands
// in the ledger without breaking the identity.
func TestStreamPerFrameError(t *testing.T) {
	s, ts := newStreamServer(t)
	c := openStream(t, ts.URL, "", false)
	c.send(t, false, input(13)) // poison: stubFrameEngine panics
	ev := c.next(t)
	if ev.Kind != stream.KindError || ev.Seq != 1 {
		t.Fatalf("kind %q seq %d, want error/1", ev.Kind, ev.Seq)
	}
	c.send(t, false, input(2))
	ev = c.next(t)
	if ev.Kind != stream.KindFrame || ev.Seq != 2 {
		t.Fatalf("session did not survive the error frame: kind %q seq %d", ev.Kind, ev.Seq)
	}
	c.pw.Close()
	waitStreamIdle(t, s)
	snap := checkLedger(t, s)
	if snap.Failed != 1 {
		t.Fatalf("failed = %d, want 1", snap.Failed)
	}
}

// Malformed frames mirror wire_abuse_test: each shape must end the
// session with a terminal in-band error event (the framing has no
// resynchronization point), never a hang, and never ledger drift.
func TestStreamAbuseMalformedFrames(t *testing.T) {
	s, ts := newStreamServer(t)
	good := wire.AppendRequest(nil, wire.Request{Lane: wire.LaneF32, Sample: -1, Label: -1}, input(1))

	cases := []struct {
		name   string
		binary bool
		bytes  []byte
	}{
		{"binary truncated header", true, good[:6]},
		{"binary truncated payload", true, good[:len(good)-4]},
		{"binary bad magic", true, append([]byte{'X'}, good[1:]...)},
		{"json garbage", false, []byte("this is not json\n")},
		{"json wrong input length", false, []byte(`{"input":[1,2]}` + "\n")},
		{"json non-object frame", false, []byte(`[1,2,3]` + "\n")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := openStream(t, ts.URL, "", tc.binary)
			// One good frame first: the error must not clobber served work.
			c.send(t, tc.binary, input(4))
			if ev := c.next(t); ev.Kind != stream.KindFrame {
				t.Fatalf("good frame: kind %q", ev.Kind)
			}
			if _, err := c.pw.Write(tc.bytes); err != nil {
				t.Fatal(err)
			}
			c.pw.Close()
			ev := c.next(t)
			if ev.Kind != stream.KindError {
				t.Fatalf("kind %q, want terminal error", ev.Kind)
			}
			if ev.Seq != 1 {
				t.Fatalf("terminal error seq %d, want 1 (last acked)", ev.Seq)
			}
		})
	}
	waitStreamIdle(t, s)
	snap := checkLedger(t, s)
	if snap.Accepted != uint64(len(cases)) {
		t.Fatalf("accepted = %d, want %d (only the good frames)", snap.Accepted, len(cases))
	}
}

// A client that vanishes mid-session (connection cut with a frame
// possibly in flight) must not wedge the session or leak its gauge.
func TestStreamMidSessionDisconnect(t *testing.T) {
	s, ts := newStreamServer(t)
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		frame, _ := json.Marshal(map[string]any{"input": input(2)})
		fmt.Fprintf(conn, "POST /v1/stream HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n")
		fmt.Fprintf(conn, "%x\r\n%s\r\n", len(frame), frame)
		// Read a little of the response (headers at least), then vanish.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		buf := make([]byte, 256)
		if _, err := conn.Read(buf); err != nil {
			t.Fatalf("disconnect round %d: no response bytes: %v", i, err)
		}
		conn.Close()
	}
	// The server still serves a clean session afterwards…
	c := openStream(t, ts.URL, "", false)
	c.send(t, false, input(1))
	if ev := c.next(t); ev.Kind != stream.KindFrame {
		t.Fatalf("post-disconnect session: kind %q", ev.Kind)
	}
	c.pw.Close()
	// …and every aborted session detached without ledger drift.
	waitStreamIdle(t, s)
	checkLedger(t, s)
}

// Regression: a session ended by a malformed frame must leave its
// kept-alive connection usable. The handler used to return before the
// client finished its body; net/http then read the body to EOF after
// the handler and started a background read that raced the next
// request ("invalid concurrent Body.Read call"), dropping the
// connection — the intermittent TestStreamAbuseMalformedFrames hang.
func TestStreamMalformedFrameKeepsConnection(t *testing.T) {
	s, ts := newStreamServer(t)
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	garbage := "this is not json\n"
	fmt.Fprintf(conn, "POST /v1/stream HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n")
	fmt.Fprintf(conn, "%x\r\n%s\r\n", len(garbage), garbage)
	// Wait for the terminal error event, then end the body.
	var got []byte
	buf := make([]byte, 4096)
	for !bytes.Contains(got, []byte(`"kind":"error"`)) {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("no terminal error event: %v (read %q)", err, got)
		}
		got = append(got, buf[:n]...)
	}
	fmt.Fprintf(conn, "0\r\n\r\n")
	// Let the end of the body land before the next request, so the
	// server reaches its next-request read with nothing to read yet.
	time.Sleep(50 * time.Millisecond)
	fmt.Fprintf(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
	for bytes.Count(got, []byte("HTTP/1.1 200")) < 2 {
		n, err := conn.Read(buf)
		if err != nil {
			t.Fatalf("next request on the connection got no answer: %v (read %q)", err, got)
		}
		got = append(got, buf[:n]...)
	}
	waitStreamIdle(t, s)
	checkLedger(t, s)

	// A client that never ends its body gets the terminal event, then a
	// complete response (its last chunk) and a closed connection once
	// bodyDrainWait has passed.
	conn2, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetDeadline(time.Now().Add(bodyDrainWait + 5*time.Second))
	fmt.Fprintf(conn2, "POST /v1/stream HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n")
	fmt.Fprintf(conn2, "%x\r\n%s\r\n", len(garbage), garbage)
	got = got[:0]
	for {
		n, err := conn2.Read(buf)
		got = append(got, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("connection not closed after bodyDrainWait: %v", err)
		}
	}
	if !bytes.Contains(got, []byte(`"kind":"error"`)) {
		t.Fatalf("no terminal error event before close: %q", got)
	}
	if !bytes.HasSuffix(got, []byte("\r\n0\r\n\r\n")) {
		t.Fatalf("connection closed before the response's last chunk: %q", got)
	}
	waitStreamIdle(t, s)
	checkLedger(t, s)
}

// Regression: admission errors on the stream route are written while
// the client's chunked body is still open. Without full duplex the
// server's writeHeader blocks draining that body against a lockstep
// client that sends nothing until it sees the response — a deadlock
// that made rejected sessions hang instead of failing fast.
func TestStreamRejectionWhileBodyOpen(t *testing.T) {
	s, ts := newStreamServer(t)
	s.Close()

	pr, pw := io.Pipe()
	defer pw.Close()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	done := make(chan int, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			done <- -1
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case code := <-done:
		if code != http.StatusServiceUnavailable {
			t.Fatalf("status %d, want 503", code)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("rejection never arrived: writeHeader is blocked draining the open request body")
	}
}
