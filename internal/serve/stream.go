package serve

import (
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/stream"
)

// serveStream runs one /v1/stream session: frames in on the request
// body, one event per frame out on the response, flushed as produced.
//
// The session commits to a 200 + streaming Content-Type immediately
// (per-frame problems are in-band error events, not HTTP statuses), so
// admission decisions (rate limit, unknown model) must happen before
// this is called.
//
// reacquire implements hot-swap chasing: when the serving server drains
// mid-session it is asked for a replacement — a non-nil, different
// server transparently continues the session; nil means the process
// really is going away and the client gets the terminal drain event.
func serveStream(w http.ResponseWriter, r *http.Request, srv *Server, reacquire func(*Server) *Server) {
	format := stream.Negotiate(r.Header.Get("Content-Type"), r.Header.Get("Accept"))
	timeline := wantTimeline(r)

	rc := http.NewResponseController(w)
	// Full-duplex lets us write events while the request body is still
	// open (HTTP/1.x needs the opt-in; elsewhere it's a no-op or
	// unsupported-and-already-duplex).
	_ = rc.EnableFullDuplex()

	w.Header().Set("Content-Type", format.ContentType())
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if rc.Flush() != nil {
		return
	}

	met := srv.Metrics()
	met.streamSession()
	defer func() { met.streamDetach() }()

	// The reader goroutine decodes frames off the body so the main loop
	// can select between "next frame" and "server draining". Two frame
	// buffers alternate: the channel is unbuffered, so the reader can't
	// start overwriting a buffer until the main loop has taken the
	// *next* one — by which point the previous frame's inference is done
	// and its input is dead.
	type frameMsg struct {
		f   stream.Frame
		err error
	}
	frames := make(chan frameMsg)
	done := make(chan struct{})
	defer close(done)
	inLen := srv.eng.InLen()
	go func() {
		dec := stream.NewDecoder(r.Body, r.Header.Get("Content-Type"))
		var bufs [2]stream.Frame
		for i := 0; ; i ^= 1 {
			err := dec.Next(&bufs[i], inLen)
			select {
			case frames <- frameMsg{f: bufs[i], err: err}:
			case <-done:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	enc := stream.NewEncoder(w, format)
	var ev stream.Event
	var acked uint32
	drain := srv.Draining()
	emit := func() bool {
		if enc.Encode(&ev) != nil {
			return false
		}
		return rc.Flush() == nil
	}
	// drainOrChase handles the serving server going away: chase the
	// swap replacement when there is one, else emit the terminal drain
	// event. Returns the replacement, or nil when the session is over.
	drainOrChase := func() *Server {
		if ns := reacquire(srv); ns != nil && ns != srv {
			met.streamDetach()
			met = ns.Metrics()
			met.streamAttach()
			return ns
		}
		ev = stream.Event{Kind: stream.KindDrain, Seq: acked, Msg: "server draining; session complete as acked"}
		emit()
		return nil
	}
	for {
		select {
		case <-drain:
			if srv = drainOrChase(); srv == nil {
				return
			}
			drain = srv.Draining()
		case msg := <-frames:
			if msg.err == io.EOF {
				// Client finished the session cleanly; every frame has
				// its event already.
				return
			}
			if msg.err != nil {
				// A malformed frame poisons the body's framing — there
				// is no resynchronization point — so the error event is
				// terminal for the session.
				ev = stream.Event{Kind: stream.KindError, Seq: acked, Msg: msg.err.Error()}
				if emit() {
					drainBody(rc, r)
				}
				return
			}
			seq := acked + 1
		inferFrame:
			start := time.Now()
			fr, err := srv.InferFrame(r.Context(), msg.f.Input, msg.f.Sample, msg.f.Label, timeline)
			if err != nil {
				if errors.Is(err, ErrClosed) {
					// The frame was not served; a replacement can still
					// take it without the client noticing.
					if srv = drainOrChase(); srv == nil {
						return
					}
					drain = srv.Draining()
					goto inferFrame
				}
				if r.Context().Err() != nil {
					return // client gone; nobody to tell
				}
				// Per-frame failure (engine panic, bad input length):
				// answer the frame with an error event and keep going.
				ev = stream.Event{Kind: stream.KindError, Seq: seq, Msg: err.Error()}
				acked = seq
				if !emit() {
					return
				}
				continue
			}
			ev = stream.Event{
				Kind:         stream.KindFrame,
				Seq:          seq,
				Pred:         fr.Pred,
				LatencySteps: fr.Latency,
				TotalSpikes:  fr.TotalSpikes,
				WallMs:       float64(time.Since(start)) / float64(time.Millisecond),
				EarlyExit:    fr.EarlyExit,
				EventsSaved:  fr.EventsSaved,
				StageSpikes:  fr.StageSpikes,
			}
			for _, tp := range fr.Timeline {
				ev.Timeline = append(ev.Timeline, stream.TimedPred{Step: tp.Step, Pred: tp.Pred})
			}
			acked = seq
			if !emit() {
				return
			}
		}
	}
}

// bodyDrainWait bounds how long a session ended by a malformed frame
// waits for the client to finish its request body; closeLinger is how
// long endAndClose keeps reading after its half-close.
const (
	bodyDrainWait = time.Second
	closeLinger   = 500 * time.Millisecond
)

// drainBody reads the rest of a session's request body before the
// handler returns. With full duplex on, net/http otherwise reads an
// unfinished body to EOF after the handler returns, and reaching EOF
// there starts a background connection read that races the next
// request on the kept-alive connection: the server panics with
// "invalid concurrent Body.Read call", drops the connection, and the
// client's next request on it never gets an answer.
//
// A client still sending after bodyDrainWait gets a complete response
// and a closed connection (endAndClose). Returning with the body
// unread would let net/http parse the rest of it as the next request,
// and aborting the handler would cut the response short, which the
// gateway reads as a failed backend.
func drainBody(rc *http.ResponseController, r *http.Request) {
	if rc.SetReadDeadline(time.Now().Add(bodyDrainWait)) != nil {
		return
	}
	if _, err := io.Copy(io.Discard, r.Body); err != nil {
		endAndClose(rc, r)
	}
}

// endAndClose takes the connection from net/http, ends the response
// with its last chunk, and closes the connection the way net/http
// closes one whose request body it gave up on: half-close, then
// discard what the client still sends for closeLinger, so the client
// reads the end of the response instead of a reset.
func endAndClose(rc *http.ResponseController, r *http.Request) {
	conn, buf, err := rc.Hijack()
	if err != nil {
		return // not HTTP/1.x: returning ends only this stream
	}
	defer conn.Close()
	if r.ProtoAtLeast(1, 1) {
		buf.WriteString("0\r\n\r\n") // HTTP/1.1 streams are chunked
	}
	if buf.Flush() != nil {
		return
	}
	if hc, ok := conn.(interface{ CloseWrite() error }); ok && hc.CloseWrite() == nil {
		conn.SetReadDeadline(time.Now().Add(closeLinger))
		io.Copy(io.Discard, conn)
	}
}

// wantTimeline reads the session-level ?timeline=1 switch.
func wantTimeline(r *http.Request) bool {
	v := r.URL.Query().Get("timeline")
	return v == "1" || v == "true"
}
