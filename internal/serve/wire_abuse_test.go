package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"repro/internal/wire"
)

// goodWireFrame encodes a valid binary request for the 4-input stub
// engine.
func goodWireFrame() []byte {
	return wire.AppendRequest(nil, wire.Request{Lane: wire.LaneF32, Sample: -1, Label: -1},
		[]float64{1, 2, 3, 4})
}

// mangle returns a copy of frame with one byte overwritten.
func mangle(frame []byte, off int, v byte) []byte {
	out := append([]byte(nil), frame...)
	out[off] = v
	return out
}

// TestWireAbuseDirect feeds the serve layer every malformed-frame shape
// an untrusted client can produce and pins two things: the exact status
// code for each (400 for malformed, 413 for oversized), and that the
// admission ledger never drifts — rejected frames are turned away
// before acceptance, so accepted = completed + expired + failed holds
// exactly with only the good requests counted.
func TestWireAbuseDirect(t *testing.T) {
	_, s, ts := newTestRegistry(t, newStubEngine(), Options{MaxBatch: 2})

	good := goodWireFrame()
	shortPayload := wire.AppendRequest(nil, wire.Request{Lane: wire.LaneF32, Sample: -1, Label: -1},
		[]float64{1, 2}) // announces n=2; the model expects 4

	post := func(contentType string, body []byte) int {
		resp, err := http.Post(ts.URL+"/v1/infer", contentType, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"good frame", good, http.StatusOK},
		{"empty body", nil, http.StatusBadRequest},
		{"truncated header", good[:10], http.StatusBadRequest},
		{"truncated payload", good[:len(good)-4], http.StatusBadRequest},
		{"trailing garbage", append(append([]byte(nil), good...), 0xff), http.StatusBadRequest},
		{"bad magic", mangle(good, 0, 'X'), http.StatusBadRequest},
		{"bad version", mangle(good, 2, 99), http.StatusBadRequest},
		{"bad lane", mangle(good, 3, 7), http.StatusBadRequest},
		{"bad mode", mangle(good, 16, 9), http.StatusBadRequest},
		{"length mismatch", shortPayload, http.StatusBadRequest},
		{"oversized", make([]byte, maxBodyBytes+1), http.StatusRequestEntityTooLarge},
		{"good frame again", good, http.StatusOK},
	}
	goodCt := 0
	for _, tc := range cases {
		if got := post(wire.ContentType, tc.body); got != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.name, got, tc.want)
		}
		if tc.want == http.StatusOK {
			goodCt++
		}
	}

	// Oversized JSON must hit the same bound as oversized binary.
	if got := post("application/json", make([]byte, maxBodyBytes+1)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized json: status %d, want 413", got)
	}

	snap := s.Metrics().Snapshot()
	if snap.Accepted != snap.Completed+snap.Expired+snap.Failed {
		t.Fatalf("ledger drift: accepted %d != completed %d + expired %d + failed %d",
			snap.Accepted, snap.Completed, snap.Expired, snap.Failed)
	}
	if snap.Accepted != uint64(goodCt) || snap.Completed != uint64(goodCt) {
		t.Fatalf("accepted/completed = %d/%d, want %d (rejected frames must not be admitted)",
			snap.Accepted, snap.Completed, goodCt)
	}
}

// TestWireAbuseMidBodyDisconnect opens raw connections that promise a
// full frame via Content-Length, send only part of it, and vanish. The
// server must survive (no hang, no crash), keep serving, and admit
// nothing from the aborted requests.
func TestWireAbuseMidBodyDisconnect(t *testing.T) {
	_, s, ts := newTestRegistry(t, newStubEngine(), Options{MaxBatch: 2})

	good := goodWireFrame()
	for i := 0; i < 4; i++ {
		conn, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST /v1/infer HTTP/1.1\r\nHost: t\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
			wire.ContentType, len(good))
		conn.Write(good[:wire.ReqHeaderLen+2]) // header + 2 payload bytes, then gone
		conn.Close()
	}

	// The server still answers a well-formed request afterwards…
	resp, err := http.Post(ts.URL+"/v1/infer", wire.ContentType, bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-disconnect status %d", resp.StatusCode)
	}
	// …and the aborted uploads never entered the ledger.
	snap := s.Metrics().Snapshot()
	if snap.Accepted != 1 || snap.Completed != 1 {
		t.Fatalf("accepted/completed = %d/%d, want 1/1", snap.Accepted, snap.Completed)
	}
	if snap.Accepted != snap.Completed+snap.Expired+snap.Failed {
		t.Fatalf("ledger drift: %+v", snap)
	}
}

// TestWireAbuseSlowPartialBody sends a frame in two spaced chunks over
// one connection: a slow-but-honest client must not be confused with an
// aborted one, and the request must complete.
func TestWireAbuseSlowPartialBody(t *testing.T) {
	_, _, ts := newTestRegistry(t, newStubEngine(), Options{MaxBatch: 2})

	good := goodWireFrame()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/infer HTTP/1.1\r\nHost: t\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		wire.ContentType, len(good))
	conn.Write(good[:11])
	time.Sleep(20 * time.Millisecond)
	conn.Write(good[11:])
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked-arrival status %d", resp.StatusCode)
	}
}
