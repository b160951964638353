package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/wire"
)

// outcome is what the server answered for one request or frame: the
// fields a served prediction must share bit for bit with its reference.
type outcome struct {
	pred, latency, spikes, saved int
	early                        bool
}

// bodies holds every distinct input pre-encoded, so the load loop
// measures the server and not the client's encoder. A request body is
// the input's prefix plus the request ID: the JSON prefix ends in
// `"sample":` and takes the ID and a closing brace; the binary frame
// takes the ID in its sample field.
type bodies struct {
	binary bool
	enc    [][]byte
}

func encodeBodies(set inputSet, binaryWire bool) bodies {
	b := bodies{binary: binaryWire, enc: make([][]byte, len(set.x))}
	for i, in := range set.x {
		if binaryWire {
			b.enc[i] = wire.AppendRequest(nil, wire.Request{Lane: wire.LaneF32, Sample: 0, Label: set.labels[i]}, in)
			continue
		}
		arr, err := json.Marshal(in)
		if err != nil {
			panic(err) // finite floats always marshal
		}
		p := append([]byte(`{"input":`), arr...)
		p = append(p, `,"label":`...)
		p = strconv.AppendInt(p, int64(set.labels[i]), 10)
		b.enc[i] = append(p, `,"sample":`...)
	}
	return b
}

// body writes input i's body carrying id into buf.
func (b bodies) body(buf []byte, i int, id int64) []byte {
	buf = append(buf[:0], b.enc[i]...)
	if b.binary {
		binary.LittleEndian.PutUint32(buf[4:], uint32(int32(id)))
		return buf
	}
	buf = strconv.AppendInt(buf, id, 10)
	return append(buf, '}')
}

// newClient returns the load generator's HTTP client: at most conns
// connections, so at most conns requests are ever in flight. tr non-nil
// wraps its RoundTripper.
func newClient(conns int, tr *tracer) *http.Client {
	var rt http.RoundTripper = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	if tr != nil {
		rt = &tracedTransport{base: rt, tr: tr, name: "client"}
	}
	return &http.Client{Transport: rt}
}

// errStatus is a non-200 answer: an error, a shed (429) or an expired
// request (504), all failures to the benchmark.
type errStatus int

func (e errStatus) Error() string { return fmt.Sprintf("status %d", int(e)) }

// oneshot sends single inference requests.
type oneshot struct {
	client *http.Client
	url    string
	bodies bodies
	ids    *atomic.Int64
}

// conn is one connection's reusable request and response buffers.
type conn struct {
	req  []byte
	resp []byte
	rd   bytes.Reader
}

func (o *oneshot) send(c *conn, input int) (outcome, error) {
	id := o.ids.Add(1)
	c.req = o.bodies.body(c.req, input, id)
	c.rd.Reset(c.req)
	req, err := http.NewRequest(http.MethodPost, o.url+"/v1/infer", &c.rd)
	if err != nil {
		return outcome{}, err
	}
	if o.bodies.binary {
		req.Header.Set("Content-Type", wire.ContentType)
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	resp, err := o.client.Do(req)
	if err != nil {
		return outcome{}, err
	}
	c.resp, err = readAll(c.resp, resp.Body)
	resp.Body.Close()
	if err != nil {
		return outcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{}, errStatus(resp.StatusCode)
	}
	if o.bodies.binary {
		r, err := wire.DecodeResponse(c.resp)
		if err != nil {
			return outcome{}, err
		}
		return outcome{pred: r.Pred, latency: r.LatencySteps, spikes: int(r.TotalSpikes), saved: int(r.EventsSaved), early: r.EarlyExit}, nil
	}
	var r serve.InferResponse
	if err := json.Unmarshal(c.resp, &r); err != nil {
		return outcome{}, err
	}
	return outcome{pred: r.Pred, latency: r.LatencySteps, spikes: r.TotalSpikes, saved: r.EventsSaved, early: r.EarlyExit}, nil
}

func readAll(buf []byte, r io.Reader) ([]byte, error) {
	b := bytes.NewBuffer(buf[:0])
	_, err := b.ReadFrom(r)
	return b.Bytes(), err
}

// session is one NDJSON /v1/stream session: frames go out on a pipe
// feeding the request body, events come back one per frame.
type session struct {
	id     int64
	pw     *io.PipeWriter
	resp   *http.Response
	events stream.EventDecoder
	buf    []byte
	sent   int
	ev     stream.Event
}

func openSession(client *http.Client, url string, id int64) (*session, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, url+"/v1/stream", pr)
	if err != nil {
		pw.Close()
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", stream.FormatNDJSON.ContentType())
	req.Header.Set(idHeader, strconv.FormatInt(id, 10))
	// Do returns once the server commits the stream's headers; the
	// transport keeps reading the pipe in the background.
	resp, err := client.Do(req)
	if err != nil {
		pw.Close()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		pw.Close()
		resp.Body.Close()
		return nil, errStatus(resp.StatusCode)
	}
	events, err := stream.NewEventDecoder(resp.Body, resp.Header.Get("Content-Type"))
	if err != nil {
		pw.Close()
		resp.Body.Close()
		return nil, err
	}
	return &session{id: id, pw: pw, resp: resp, events: events}, nil
}

// frame sends one frame and waits for its event. The separator goes in
// front of the frame, in the same write, so no byte of a frame arrives
// after the server has answered it.
func (s *session) frame(b bodies, input int, id int64) (outcome, error) {
	s.buf = s.buf[:0]
	if s.sent > 0 {
		s.buf = append(s.buf, '\n')
	}
	s.buf = append(s.buf, b.enc[input]...)
	s.buf = strconv.AppendInt(s.buf, id, 10)
	s.buf = append(s.buf, '}')
	s.sent++
	if _, err := s.pw.Write(s.buf); err != nil {
		return outcome{}, err
	}
	if err := s.events.Next(&s.ev); err != nil {
		return outcome{}, err
	}
	if s.ev.Kind != stream.KindFrame {
		return outcome{}, fmt.Errorf("stream %s event: %s", s.ev.Kind, s.ev.Msg)
	}
	ev := &s.ev
	return outcome{pred: ev.Pred, latency: ev.LatencySteps, spikes: ev.TotalSpikes, saved: ev.EventsSaved, early: ev.EarlyExit}, nil
}

// close ends the session cleanly: the server sees EOF on the body and
// closes its side; any further event is an error.
func (s *session) close() error {
	s.pw.Close()
	defer s.resp.Body.Close()
	if err := s.events.Next(&s.ev); !errors.Is(err, io.EOF) {
		return fmt.Errorf("stream session %d did not end cleanly: %v", s.id, err)
	}
	return nil
}

// phaseResult is what one measured phase collected.
type phaseResult struct {
	// lat holds each successful request's latency in ms: from its due
	// time (open loop) or send time (closed loop) to its response.
	lat       []float64
	attempted int
	failed    int
	// lags holds, for open loops, how late the generator woke up for
	// each request, in ms: time past its due time when it was released
	// to a free connection or, for a session, sent.
	lags []float64
	// nominal is an open loop's scheduled span, released the time its
	// last request was actually released.
	nominal, released time.Duration
	// elapsed is the closed loop's measured wall time.
	elapsed time.Duration
}

// rateRatio is an open loop's achieved release rate over its nominal
// rate.
func (p phaseResult) rateRatio() float64 {
	if p.released <= 0 {
		return 1
	}
	return float64(p.nominal) / float64(p.released)
}

// rate is a closed loop's completed requests per second over its
// elapsed time, pooled over every slice.
func (p phaseResult) rate() float64 {
	return float64(len(p.lat)) / p.elapsed.Seconds()
}

// valid checks an open loop's generator against its validity bounds.
func (p phaseResult) valid() error {
	lag50, lag99 := quantiles(p.lags)
	lat50, lat99 := quantiles(p.lat)
	if lag50 > maxLagShareP50*lat50 || lag99 > maxLagShareP99*lat99 || p.rateRatio() < minRateRatio {
		return fmt.Errorf("load generator lag p50 %.3f ms against latency p50 %.2f ms (bound %.0f%%), lag p99 %.2f ms against latency p99 %.2f ms (bound %.0f%%), release rate ratio %.3f (bound %.2f)",
			lag50, lat50, 100*maxLagShareP50, lag99, lat99, 100*maxLagShareP99, p.rateRatio(), minRateRatio)
	}
	return nil
}

// closedGrace bounds how long a closed loop runs past its duration
// waiting for its minimum sample count.
const closedGrace = 5 * time.Second

// request is one unit of load: send it on connection c and return the
// outcome's error (nil on success).
type request func(c, i int) error

// runOpen drives an open loop: a dispatcher releases request i at
// due[i] regardless of progress, and conns workers send released
// requests in order. A request's latency runs from its due time, so a
// request that waits for a busy connection carries the wait.
func runOpen(due []time.Duration, conns int, send request) phaseResult {
	n := len(due)
	res := phaseResult{attempted: n, lags: make([]float64, n)}
	lat := make([]float64, n)
	ok := make([]bool, n)
	// Every request may be pending at once: the loop is open, so the
	// buffer holds the whole schedule.
	queue := make(chan int, n)
	start := time.Now()
	var last time.Duration
	go func() {
		for i, d := range due {
			if wait := d - time.Since(start); wait > 0 {
				sleepUntilDue(wait)
			}
			now := time.Since(start)
			res.lags[i] = ms(now - d)
			last = now
			queue <- i
		}
		close(queue)
	}()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range queue {
				err := send(c, i)
				lat[i] = ms(time.Since(start) - due[i])
				ok[i] = err == nil
			}
		}(c)
	}
	wg.Wait()
	for i := range lat {
		if ok[i] {
			res.lat = append(res.lat, lat[i])
		} else {
			res.failed++
		}
	}
	res.nominal, res.released = due[n-1], last
	return res
}

// runClosed drives a closed loop: conns clients each send their next
// request as soon as the previous one completes, until at least dur has
// passed and at least minN requests completed.
func runClosed(conns int, dur time.Duration, minN int, send request) phaseResult {
	var next, done atomic.Int64
	var mu sync.Mutex
	var res phaseResult
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			attempted, failed := 0, 0
			for t := time.Since(start); t < dur || (done.Load() < int64(minN) && t < dur+closedGrace); t = time.Since(start) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				err := send(c, i)
				attempted++
				if err != nil {
					failed++
					continue
				}
				lat = append(lat, ms(time.Since(t0)))
				done.Add(1)
			}
			mu.Lock()
			res.lat = append(res.lat, lat...)
			res.attempted += attempted
			res.failed += failed
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// runSessions drives one open loop per stream session: session c sends
// its k-th frame at due[c][k], or as soon as its previous frame's event
// arrives if that is later.
func runSessions(due [][]time.Duration, send request) phaseResult {
	parts := make([]phaseResult, len(due))
	var wg sync.WaitGroup
	for c := range due {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			parts[c] = runOpen(due[c], 1, func(_, k int) error { return send(c, k) })
		}(c)
	}
	wg.Wait()
	var res phaseResult
	for _, p := range parts {
		res = pool(res, p)
	}
	return res
}

// pool merges one part of a phase (a session, a round's slice) into its
// running totals.
func pool(acc, p phaseResult) phaseResult {
	acc.lat = append(acc.lat, p.lat...)
	acc.lags = append(acc.lags, p.lags...)
	acc.attempted += p.attempted
	acc.failed += p.failed
	acc.nominal += p.nominal
	acc.released += p.released
	acc.elapsed += p.elapsed
	return acc
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
