package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/wire"
)

// maxBodyBytes bounds /v1/infer request bodies. The bound is defensive
// headroom, not a sizing estimate: the largest supported input
// (CIFAR-100-like, 3072 floats as JSON) encodes to well under 1 MiB,
// and anything approaching 8 MiB is a hostile or broken client.
const maxBodyBytes = 8 << 20

// InferRequest is the /v1/infer JSON request body. Clients that care
// about decode cost send the binary frame format instead (Content-Type
// application/x-t2f, internal/wire); the fields correspond one-to-one.
type InferRequest struct {
	// Input is the flattened sample (length must match the model).
	Input []float64 `json:"input"`
	// Sample keys deterministic fault injection; omit or use a negative
	// value to disable faults for this request.
	Sample *int `json:"sample,omitempty"`
	// Label, when present, feeds the live accuracy tracker in /metrics.
	Label *int `json:"label,omitempty"`
	// TimeoutMs overrides the server's default per-request deadline
	// (clamped to Options.MaxTimeout when set).
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Mode selects the serving path for this request: "latency" runs it
	// directly on the engine's single-sample path (falling back to the
	// queue when the engine is batch-only), "throughput" sends it
	// through the batching queue, and "" defers to the server's
	// DefaultMode (or automatic routing).
	Mode string `json:"mode,omitempty"`
}

// InferResponse is the /v1/infer JSON response body (the binary path
// answers with a wire.Response frame carrying the same fields).
type InferResponse struct {
	Pred         int     `json:"pred"`
	LatencySteps int     `json:"latency_steps"`
	TotalSpikes  int     `json:"total_spikes"`
	WallMs       float64 `json:"wall_ms"`
	// EarlyExit reports that the engine stopped integrating the output
	// window once the winner was provably settled; EventsSaved counts
	// the spike arrivals that exit skipped.
	EarlyExit   bool `json:"early_exit"`
	EventsSaved int  `json:"events_saved"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// inferReq is one decoded inference request in wire-format-agnostic
// form. Instances are pooled: the body buffer, the input slice, and the
// JSON decode target all keep their capacity across requests, so the
// steady-state decode path allocates nothing on either wire format.
type inferReq struct {
	input     []float64
	sample    int // -1 = no fault stream
	label     int // -1 = unlabeled
	timeoutMs int
	mode      string
	wire      bool // binary response negotiated (application/x-t2f)

	body []byte // pooled request-body read buffer

	// js is the JSON decode target. Sample/Label point at sampleV/labelV
	// so present fields decode into pooled memory instead of allocating;
	// absent fields leave the pointees at the -1 sentinel, which the
	// deref below reads back as "none" — the same meaning a nil pointer
	// had. Input shares its backing array with input.
	js              InferRequest
	sampleV, labelV int
}

// resetJSON points the JSON decode target at a clean state: no fields
// seen, the sentinels in place, and Input empty on in's backing array.
func (ir *inferReq) resetJSON(in []float64) {
	ir.sampleV, ir.labelV = -1, -1
	ir.js = InferRequest{Input: in[:0], Sample: &ir.sampleV, Label: &ir.labelV}
}

var inferReqPool = sync.Pool{New: func() any { return new(inferReq) }}

func putInferReq(ir *inferReq) { inferReqPool.Put(ir) }

// inputPool holds the owned input buffers handed to the batching queue:
// the enqueue transfers ownership to the worker, which recycles the
// buffer once its batch has run (see runBatch), so an abandoned request
// can never observe its input being reused under it.
var inputPool = sync.Pool{New: func() any { return new([]float64) }}

func getInput(n int) []float64 {
	p := inputPool.Get().(*[]float64)
	if cap(*p) < n {
		return make([]float64, n)
	}
	return (*p)[:n]
}

func putInput(in []float64) {
	inputPool.Put(&in)
}

// readBody drains one request body into buf (grown only when capacity
// is short), bounded by maxBodyBytes.
func readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if cap(buf) == 0 {
		buf = make([]byte, 0, 4096)
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// decodeInferRequest parses and validates one /v1/infer body against
// srv's engine, writing the error response itself when it fails. The
// wire format is negotiated on the request's Content-Type: the binary
// frame format (application/x-t2f) decodes straight into pooled
// buffers; everything else is treated as the JSON form. The returned
// request is pooled — the caller must hand it back with putInferReq
// once the response is written.
func decodeInferRequest(w http.ResponseWriter, r *http.Request, srv *Server) (*inferReq, bool) {
	ir := inferReqPool.Get().(*inferReq)
	body, err := readBody(w, r, ir.body)
	ir.body = body // keep the grown buffer even when the read failed
	if err != nil {
		putInferReq(ir)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
			return nil, false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("reading request body: %v", err))
		return nil, false
	}
	if wire.Negotiates(r.Header.Get("Content-Type")) {
		h, in, err := wire.DecodeRequest(body, ir.input[:0], srv.eng.InLen())
		ir.input = in
		if err != nil {
			putInferReq(ir)
			writeError(w, http.StatusBadRequest, err.Error())
			return nil, false
		}
		ir.wire = true
		ir.sample, ir.label = h.Sample, h.Label
		ir.timeoutMs = h.TimeoutMs
		ir.mode = wireModeString(h.Mode)
		return ir, true
	}

	// JSON path: decode into the pooled decode target. Input keeps its
	// backing array, and the pointer fields decode into pooled ints
	// preloaded with the "absent" sentinel. Canonical bodies take the
	// one-pass decoder; any other body is reset to that clean target
	// and goes to json.Unmarshal, which owns every error message.
	ir.wire = false
	ir.resetJSON(ir.input)
	if !decodeInferJSON(body, &ir.js) {
		ir.resetJSON(ir.js.Input)
		if err := json.Unmarshal(body, &ir.js); err != nil {
			ir.input = ir.js.Input
			putInferReq(ir)
			// json.Unmarshal also rejects trailing data after the top-level
			// value — a concatenated or mis-framed body we likely mis-read.
			writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
			return nil, false
		}
	}
	ir.input = ir.js.Input
	if len(ir.input) != srv.eng.InLen() {
		putInferReq(ir)
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("input length %d, model expects %d", len(ir.input), srv.eng.InLen()))
		return nil, false
	}
	switch ir.js.Mode {
	case "", ModeLatency, ModeThroughput:
	default:
		mode := ir.js.Mode
		putInferReq(ir)
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("mode %q, want %q or %q", mode, ModeLatency, ModeThroughput))
		return nil, false
	}
	ir.sample, ir.label = -1, -1
	if ir.js.Sample != nil {
		ir.sample = *ir.js.Sample
	}
	if ir.js.Label != nil {
		ir.label = *ir.js.Label
	}
	ir.timeoutMs = ir.js.TimeoutMs
	ir.mode = ir.js.Mode
	return ir, true
}

// wireModeString maps the binary frame's mode byte onto the serving
// mode strings (wire.DecodeRequest already rejected anything else).
func wireModeString(m uint8) string {
	switch m {
	case wire.ModeLatency:
		return ModeLatency
	case wire.ModeThroughput:
		return ModeThroughput
	}
	return ""
}

// latencyRoute decides whether a decoded request takes the direct
// single-sample path: the request's explicit mode wins, then the
// server's DefaultMode, then the automatic rule — direct when batching
// is off (MaxBatch 1, queueing buys nothing) or when the request's
// effective deadline is tighter than the engine's rolling batch p99
// (a queued request would likely die waiting). Engines without the
// SingleEngine capability always route through the queue.
func (s *Server) latencyRoute(mode string, timeoutMs int) bool {
	if s.single == nil {
		return false
	}
	if mode == "" {
		mode = s.opt.DefaultMode
	}
	switch mode {
	case ModeLatency:
		return true
	case ModeThroughput:
		return false
	}
	if s.opt.MaxBatch == 1 {
		return true
	}
	if t := s.inferTimeout(timeoutMs); t > 0 {
		if p99 := s.met.BatchLatencyP99(); p99 > 0 && t < p99 {
			return true
		}
	}
	return false
}

// inferTimeout resolves the effective per-request deadline: the
// client's timeout_ms if given, else DefaultTimeout, with both — and
// the "no deadline at all" case — clamped to MaxTimeout when set.
// Without the clamp a client could send an arbitrarily large (or no)
// deadline and defeat deadline-based shedding.
func (s *Server) inferTimeout(timeoutMs int) time.Duration {
	timeout := s.opt.DefaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	if max := s.opt.MaxTimeout; max > 0 && (timeout <= 0 || timeout > max) {
		timeout = max
	}
	return timeout
}

// serveInfer runs one decoded request through srv and writes the
// response — except for ErrClosed, which is returned unwritten so the
// registry's model path can chase a hot-swap cutover onto the
// replacement server instead of failing the client. Admission (rate
// limiting, deadline shedding) is the caller's job.
func serveInfer(w http.ResponseWriter, r *http.Request, srv *Server, ir *inferReq) error {
	ctx := r.Context()
	if timeout := srv.inferTimeout(ir.timeoutMs); timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	start := time.Now()
	var pred Prediction
	var err error
	if srv.latencyRoute(ir.mode, ir.timeoutMs) {
		// The direct path is synchronous: the engine is done with
		// ir.input when it returns, so the pooled buffer recycles freely.
		pred, err = srv.InferDirect(ctx, ir.input, ir.sample, ir.label)
	} else {
		pred, err = srv.inferQueued(ctx, ir.input, ir.sample, ir.label)
	}
	if err != nil {
		if errors.Is(err, ErrClosed) {
			return err
		}
		writeInferError(w, err)
		return nil
	}
	writeInferResponse(w, ir.wire, InferResponse{
		Pred:         pred.Pred,
		LatencySteps: pred.Latency,
		TotalSpikes:  pred.TotalSpikes,
		WallMs:       float64(time.Since(start)) / float64(time.Millisecond),
		EarlyExit:    pred.EarlyExit,
		EventsSaved:  pred.EventsSaved,
	})
	return nil
}

// writeInferResponse writes one successful prediction in the negotiated
// wire format, staging the body in a pooled buffer either way.
func writeInferResponse(w http.ResponseWriter, binary bool, resp InferResponse) {
	bp := wire.GetBuf()
	buf := *bp
	if binary {
		buf = wire.AppendResponse(buf, wire.Response{
			Pred:         resp.Pred,
			LatencySteps: resp.LatencySteps,
			TotalSpikes:  satU32(resp.TotalSpikes),
			EventsSaved:  satU32(resp.EventsSaved),
			WallUs:       satU32(int(resp.WallMs * 1000)),
			EarlyExit:    resp.EarlyExit,
		})
		w.Header().Set("Content-Type", wire.ContentType)
	} else {
		buf = appendInferResponseJSON(buf, resp)
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(http.StatusOK)
	w.Write(buf)
	*bp = buf
	wire.PutBuf(bp)
}

// satU32 clamps a non-negative int onto uint32 for the wire counters.
func satU32(v int) uint32 {
	if v < 0 {
		return 0
	}
	if v > math.MaxUint32 {
		return math.MaxUint32
	}
	return uint32(v)
}

// appendInferResponseJSON hand-encodes InferResponse (fields mirror the
// struct tags) so the success path skips encoding/json's allocations.
func appendInferResponseJSON(b []byte, r InferResponse) []byte {
	b = append(b, `{"pred":`...)
	b = strconv.AppendInt(b, int64(r.Pred), 10)
	b = append(b, `,"latency_steps":`...)
	b = strconv.AppendInt(b, int64(r.LatencySteps), 10)
	b = append(b, `,"total_spikes":`...)
	b = strconv.AppendInt(b, int64(r.TotalSpikes), 10)
	b = append(b, `,"wall_ms":`...)
	b = strconv.AppendFloat(b, r.WallMs, 'g', -1, 64)
	b = append(b, `,"early_exit":`...)
	b = strconv.AppendBool(b, r.EarlyExit)
	b = append(b, `,"events_saved":`...)
	b = strconv.AppendInt(b, int64(r.EventsSaved), 10)
	b = append(b, "}\n"...)
	return b
}

func writeInferError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		// Queue-full backpressure clears on the next batch dispatch;
		// 1s is the smallest interval Retry-After can express.
		writeRetryAfter(w, time.Second)
		writeError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded before inference completed")
	case errors.Is(err, context.Canceled):
		// The client disconnected; there is no one to read a body, so
		// don't write one — net/http discards the response anyway.
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// writeRetryAfter sets a Retry-After header of at least one second
// (the header's resolution) covering d.
func writeRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}
