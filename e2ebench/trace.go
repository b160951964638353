package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// idHeader carries the benchmark's request (or stream session) ID. The
// client sends it on every request, traced or not, so both runs send
// identical requests; the gateway neither routes on it nor forwards it,
// and the serve layer ignores it. Only the traced gateway transport
// copies it onto the backend hop.
const idHeader = "X-Bench-ID"

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch, on the monotonic clock.
type span struct {
	name       string
	id         int64 // request, frame or session ID
	start, end int64
	// Engine calls only: the sample IDs in the call and what the engine
	// returned for them.
	ids                  []int
	spikes, early, saved int
}

// frameLog records one stream session's traffic at one layer: when
// frame bytes arrived on the request body and when each event's
// terminating newline was written. Sessions run one frame at a time, so
// frame k is the first arrival after event k-1 and ends at event k.
type frameLog struct {
	layer   string
	session int64
	start   int64

	mu     sync.Mutex
	reads  []int64
	events []int64
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time

	mu       sync.Mutex
	spans    []span
	sessions []*frameLog
	// frames lists each client session's frame IDs in send order.
	frames map[int64][]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), frames: map[int64][]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) session(layer string, id, start int64) *frameLog {
	l := &frameLog{layer: layer, session: id, start: start}
	t.mu.Lock()
	t.sessions = append(t.sessions, l)
	t.mu.Unlock()
	return l
}

func (t *tracer) sentFrame(session, frame int64) {
	t.mu.Lock()
	t.frames[session] = append(t.frames[session], frame)
	t.mu.Unlock()
}

type ctxKey struct{}

func headerID(h http.Header) (int64, bool) {
	v := h.Get(idHeader)
	if v == "" {
		return 0, false
	}
	id, err := strconv.ParseInt(v, 10, 64)
	return id, err == nil
}

// tracedTransport wraps an http.RoundTripper: the client's, or the
// gateway's backend transport. A span lasts from the call until the
// response body is drained or closed. Requests without an ID (health
// probes, readiness polls) pass through untraced.
type tracedTransport struct {
	base http.RoundTripper
	tr   *tracer
	name string
	// fromContext takes the ID from the request context (set by the
	// traced gateway handler) and forwards it to the backend in
	// idHeader; otherwise the ID is read from the request's own header.
	fromContext bool
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var id int64
	var ok bool
	if t.fromContext {
		id, ok = req.Context().Value(ctxKey{}).(int64)
		if ok {
			req = req.Clone(req.Context())
			req.Header.Set(idHeader, strconv.FormatInt(id, 10))
		}
	} else {
		id, ok = headerID(req.Header)
	}
	if !ok {
		return t.base.RoundTrip(req)
	}
	start := t.tr.now()
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.tr.add(span{name: t.name, id: id, start: start, end: t.tr.now()})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, tr: t.tr, s: span{name: t.name, id: id, start: start}}
	return resp, nil
}

// spanBody ends its span at the first EOF, read error or Close.
type spanBody struct {
	io.ReadCloser
	tr   *tracer
	s    span
	once sync.Once
}

func (b *spanBody) finish() {
	b.once.Do(func() {
		b.s.end = b.tr.now()
		b.tr.add(b.s)
	})
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *spanBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// traceHandler wraps gateway.Handler() or Registry.Handler(). A
// one-shot request's span is the ServeHTTP call; a stream session's
// whole call is recorded as "<name>.session" and its frames are logged
// from the body reads and event writes.
func traceHandler(h http.Handler, tr *tracer, name string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, ok := headerID(r.Header)
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		start := tr.now()
		r = r.WithContext(context.WithValue(r.Context(), ctxKey{}, id))
		spanName := name
		if strings.HasSuffix(r.URL.Path, "/stream") {
			spanName += ".session"
			fl := tr.session(name, id, start)
			r.Body = &frameReader{ReadCloser: r.Body, tr: tr, log: fl}
			w = &eventWriter{ResponseWriter: w, tr: tr, log: fl}
		}
		h.ServeHTTP(w, r)
		tr.add(span{name: spanName, id: id, start: start, end: tr.now()})
	})
}

type frameReader struct {
	io.ReadCloser
	tr  *tracer
	log *frameLog
}

func (f *frameReader) Read(p []byte) (int, error) {
	n, err := f.ReadCloser.Read(p)
	if n > 0 {
		now := f.tr.now()
		f.log.mu.Lock()
		f.log.reads = append(f.log.reads, now)
		f.log.mu.Unlock()
	}
	return n, err
}

// eventWriter timestamps every NDJSON event the handler writes. Unwrap
// lets http.ResponseController reach the real writer for Flush and
// EnableFullDuplex, which the stream handlers depend on.
type eventWriter struct {
	http.ResponseWriter
	tr  *tracer
	log *frameLog
}

func (e *eventWriter) Write(p []byte) (int, error) {
	n, err := e.ResponseWriter.Write(p)
	if k := bytes.Count(p[:n], []byte{'\n'}); k > 0 {
		now := e.tr.now()
		e.log.mu.Lock()
		for ; k > 0; k-- {
			e.log.events = append(e.log.events, now)
		}
		e.log.mu.Unlock()
	}
	return n, err
}

func (e *eventWriter) Unwrap() http.ResponseWriter { return e.ResponseWriter }

// engineTrace wraps the serve.Engine handed to Registry.Add, recording
// one span per engine call with the sample IDs it carried. The sample
// field is the request ID: with no fault injector it has no effect on
// inference.
//
// serve.New discovers optional capabilities by type assertion, so a
// wrapper must expose exactly the wrapped engine's set; wrapEngine
// picks the wrapper type that does.
type engineTrace struct {
	inner serve.Engine
	tr    *tracer
}

func (e *engineTrace) InLen() int   { return e.inner.InLen() }
func (e *engineTrace) Classes() int { return e.inner.Classes() }

func (e *engineTrace) InferBatch(inputs [][]float64, samples []int) []serve.Prediction {
	start := e.tr.now()
	preds := e.inner.InferBatch(inputs, samples)
	e.record(start, samples, preds...)
	return preds
}

func (e *engineTrace) record(start int64, samples []int, preds ...serve.Prediction) {
	s := span{name: "engine", id: int64(samples[0]), start: start, end: e.tr.now(), ids: samples}
	for _, p := range preds {
		s.spikes += p.TotalSpikes
		s.saved += p.EventsSaved
		if p.EarlyExit {
			s.early++
		}
	}
	e.tr.add(s)
}

func (e *engineTrace) inferFrame(input []float64, sample int, timeline bool) serve.FrameResult {
	start := e.tr.now()
	fr := e.inner.(serve.FrameEngine).InferFrame(input, sample, timeline)
	e.record(start, []int{sample}, fr.Prediction)
	return fr
}

// batchEngineTrace carries FrameEngine, EngineDescriber and
// ChunkReporter: the capability set of serve.TTFSEngine.
type batchEngineTrace struct{ engineTrace }

func (e *batchEngineTrace) InferFrame(input []float64, sample int, timeline bool) serve.FrameResult {
	return e.inferFrame(input, sample, timeline)
}
func (e *batchEngineTrace) EngineDesc() string {
	return e.inner.(serve.EngineDescriber).EngineDesc()
}
func (e *batchEngineTrace) ParallelChunks() uint64 {
	return e.inner.(serve.ChunkReporter).ParallelChunks()
}

// singleEngineTrace carries SingleEngine, FrameEngine and
// EngineDescriber: the capability set of serve.EventEngine and
// serve.QuantEngine.
type singleEngineTrace struct{ engineTrace }

func (e *singleEngineTrace) InferOne(input []float64, sample int) serve.Prediction {
	start := e.tr.now()
	p := e.inner.(serve.SingleEngine).InferOne(input, sample)
	e.record(start, []int{sample}, p)
	return p
}
func (e *singleEngineTrace) InferFrame(input []float64, sample int, timeline bool) serve.FrameResult {
	return e.inferFrame(input, sample, timeline)
}
func (e *singleEngineTrace) EngineDesc() string {
	return e.inner.(serve.EngineDescriber).EngineDesc()
}

// capabilities lists which optional serve interfaces an engine has.
type capabilities struct{ single, frame, describer, chunks bool }

func capsOf(e serve.Engine) capabilities {
	var c capabilities
	_, c.single = e.(serve.SingleEngine)
	_, c.frame = e.(serve.FrameEngine)
	_, c.describer = e.(serve.EngineDescriber)
	_, c.chunks = e.(serve.ChunkReporter)
	return c
}

func wrapEngine(e serve.Engine, tr *tracer) (serve.Engine, error) {
	base := engineTrace{inner: e, tr: tr}
	switch c := capsOf(e); c {
	case capabilities{frame: true, describer: true, chunks: true}:
		return &batchEngineTrace{base}, nil
	case capabilities{single: true, frame: true, describer: true}:
		return &singleEngineTrace{base}, nil
	default:
		return nil, fmt.Errorf("no engine wrapper with capabilities %+v", c)
	}
}
