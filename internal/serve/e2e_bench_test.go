package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/wire"
)

// benchEngine is a minimal Engine+SingleEngine that does a fixed, tiny
// amount of work and records nothing: BenchmarkServeE2E measures the
// serving layer (routing, decode, pooling, encode), so the engine must
// not contribute allocations or lock traffic of its own.
type benchEngine struct {
	inLen, classes int
}

func (e *benchEngine) InLen() int   { return e.inLen }
func (e *benchEngine) Classes() int { return e.classes }

func (e *benchEngine) InferOne(input []float64, sample int) Prediction {
	best, bestV := 0, input[0]
	for c := 1; c < e.classes; c++ {
		if input[c] > bestV {
			best, bestV = c, input[c]
		}
	}
	return Prediction{Pred: best, Latency: 3, TotalSpikes: 42}
}

func (e *benchEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	preds := make([]Prediction, len(inputs))
	for i, in := range inputs {
		preds[i] = e.InferOne(in, samples[i])
	}
	return preds
}

// replayBody is a resettable request body: one bytes.Reader reused for
// every iteration, so the benchmark's loop allocates nothing of its own
// and allocs/op is the handler's true per-request cost.
type replayBody struct{ *bytes.Reader }

func (replayBody) Close() error { return nil }

// benchResponseWriter is a reusable ResponseWriter: the header map and
// the body buffer persist across iterations like a kept-alive
// connection's write buffers would.
type benchResponseWriter struct {
	hdr  http.Header
	buf  []byte
	code int
}

func (w *benchResponseWriter) Header() http.Header { return w.hdr }
func (w *benchResponseWriter) WriteHeader(c int)   { w.code = c }
func (w *benchResponseWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// BenchmarkServeE2E drives the registry's HTTP handler in-process at
// the default model's /v1/infer route (mux routing, admission, content
// negotiation, body decode, direct inference, response encode) without
// real sockets, comparing the JSON and binary wire formats. The
// request/response plumbing is reused across iterations so allocs/op
// isolates the per-request cost of the handler itself. The in784 case
// is the served shape: a 28×28 image of k/255 pixels, whose JSON body
// carries the shortest round-trip floats, up to 17 digits, that a real
// client sends.
func BenchmarkServeE2E(b *testing.B) {
	handler := func(b *testing.B, inLen int) http.Handler {
		reg := NewRegistry(RegistryOptions{})
		b.Cleanup(reg.Close)
		// Batching off: requests route direct.
		if _, err := reg.Add("m", &benchEngine{inLen: inLen, classes: 10}, Options{MaxBatch: 1}); err != nil {
			b.Fatal(err)
		}
		return reg.Handler()
	}

	run := func(b *testing.B, inLen int, body []byte, contentType string) {
		h := handler(b, inLen)
		rd := bytes.NewReader(body)
		req, err := http.NewRequest(http.MethodPost, "/v1/infer", nil)
		if err != nil {
			b.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		req.Body = replayBody{rd}
		w := &benchResponseWriter{hdr: make(http.Header)}
		// One warm pass primes every pool before the timer.
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d: %s", w.code, w.buf)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			w.buf = w.buf[:0]
			w.code = 0
			h.ServeHTTP(w, req)
			if w.code != http.StatusOK {
				b.Fatalf("status %d: %s", w.code, w.buf)
			}
		}
	}
	jsonBody := func(b *testing.B, input []float64) []byte {
		body, err := json.Marshal(InferRequest{Input: input})
		if err != nil {
			b.Fatal(err)
		}
		return body
	}

	in256 := make([]float64, 256)
	for i := range in256 {
		in256[i] = float64(i%17) / 17
	}
	binBody := wire.AppendRequest(nil, wire.Request{Lane: wire.LaneF32, Sample: -1, Label: -1}, in256)
	in784 := make([]float64, 784)
	for i := range in784 {
		in784[i] = float64(i*37%256) / 255
	}

	b.Run("json/in256", func(b *testing.B) { run(b, 256, jsonBody(b, in256), "application/json") })
	b.Run("binary/in256", func(b *testing.B) { run(b, 256, binBody, wire.ContentType) })
	b.Run("json/in784", func(b *testing.B) { run(b, 784, jsonBody(b, in784), "application/json") })
}
