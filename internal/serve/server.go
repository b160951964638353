package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrOverloaded is returned when the bounded request queue is full; the
// HTTP layer maps it to 429 so load generators can back off.
var ErrOverloaded = errors.New("serve: queue full")

// ErrClosed is returned for requests submitted after Close started; the
// HTTP layer maps it to 503.
var ErrClosed = errors.New("serve: server closed")

// Options configures the batching scheduler.
type Options struct {
	// MaxBatch is the largest batch handed to the engine (default 16).
	// A worker takes whatever is already queued, up to MaxBatch, so
	// batches form only from requests that queued while every worker
	// was busy.
	MaxBatch int
	// MaxWait is ignored: workers never hold a request back waiting for
	// company.
	//
	// Deprecated: batching is work-conserving; there is nothing to tune.
	MaxWait time.Duration
	// QueueSize bounds the request queue; submissions beyond it fail
	// fast with ErrOverloaded (default 8×MaxBatch).
	QueueSize int
	// Workers is the number of concurrent batch executors (default
	// GOMAXPROCS). The engine is CPU-bound, so more workers than cores
	// buys nothing; an engine on a multi-worker core.Pool already
	// spreads each batch across cores, and wants one executor.
	Workers int
	// DefaultTimeout is applied to requests that carry no deadline of
	// their own (0 = no default deadline).
	DefaultTimeout time.Duration
	// MaxTimeout caps the per-request deadline the HTTP layer will grant
	// (0 = unlimited). Without a cap a client can send an arbitrarily
	// large timeout_ms — or none at all — and defeat deadline-based
	// admission control, so registry deployments should set this.
	MaxTimeout time.Duration
	// DefaultMode is the serving mode applied to requests that don't
	// carry their own "mode" field: ModeLatency routes them down the
	// direct single-sample path (when the engine implements
	// SingleEngine), ModeThroughput through the batching queue,
	// and "" picks automatically — latency when batching is off
	// (MaxBatch 1) or the request's deadline is tighter than the rolling
	// batch p99, throughput otherwise.
	DefaultMode string
}

// Serving modes for Options.DefaultMode and InferRequest.Mode.
const (
	ModeLatency    = "latency"
	ModeThroughput = "throughput"
)

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 8 * o.MaxBatch
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

type result struct {
	pred Prediction
	err  error
}

type request struct {
	ctx    context.Context
	input  []float64
	sample int
	label  int // -1 when the request is unlabeled
	enq    time.Time
	done   chan result // buffered(1): workers never block on delivery

	// owned marks input as a pool-owned buffer whose ownership moved to
	// the server at enqueue: the worker recycles it once its batch has
	// run. The HTTP layer sets this so its pooled decode buffers can't
	// be reused while a worker still reads an abandoned request's input.
	owned bool

	// settled arbitrates metric accounting between the worker (complete/
	// fail/expired-at-dispatch) and the abandoning client (expired):
	// whoever wins the CompareAndSwap counts the request, exactly once,
	// so accepted = completed + expired + failed holds as an identity.
	settled atomic.Bool
}

// Server owns the request queue and the workers that drain it in
// batches. Create with New (or Registry.Add, which also serves it over
// HTTP), submit with Infer, InferDirect or InferFrame, stop with Close
// (drains in-flight work).
type Server struct {
	eng Engine
	opt Options
	met *Metrics

	// single is the engine's SingleEngine capability (nil when the
	// engine is batch-only), discovered once in New. Latency-mode
	// requests run on it via InferDirect, bypassing the queue.
	single SingleEngine
	// frame is the engine's FrameEngine capability (nil when absent);
	// stream sessions run their frames on it.
	frame FrameEngine

	mu     sync.RWMutex // guards closed + queue close + directWG.Add
	closed bool
	queue  chan *request

	// drain closes when BeginDrain (or Close) starts: long-lived stream
	// sessions select on it to learn the server is going away while
	// their connection is otherwise idle.
	drain     chan struct{}
	drainOnce sync.Once

	wg       sync.WaitGroup // workers
	directWG sync.WaitGroup // in-flight InferDirect calls
}

// New starts a server: the worker goroutines run until Close.
func New(eng Engine, opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		eng:   eng,
		opt:   opt,
		met:   newMetrics(opt.MaxBatch, eng.Classes()),
		queue: make(chan *request, opt.QueueSize),
		drain: make(chan struct{}),
	}
	s.single, _ = eng.(SingleEngine)
	s.frame, _ = eng.(FrameEngine)
	if d, ok := eng.(EngineDescriber); ok {
		s.met.setEngine(d.EngineDesc())
	}
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s
}

// Options returns the effective (defaulted) options.
func (s *Server) Options() Options { return s.opt }

// Metrics returns the server's metrics collector.
func (s *Server) Metrics() *Metrics { return s.met }

// Warm runs one zero-sample batch directly on the engine, bypassing
// the queue and the metrics: the first inference builds the model's
// scatter tables and sizes a pooled scratch, costs that should land here
// rather than on the first user request's latency.
func (s *Server) Warm() {
	s.eng.InferBatch([][]float64{make([]float64, s.eng.InLen())}, []int{-1})
	if s.single != nil {
		// The direct path has its own pooled scratch to build.
		s.single.InferOne(make([]float64, s.eng.InLen()), -1)
	}
}

// Closed reports whether Close has started.
func (s *Server) Closed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.closed
}

// Infer submits one sample and blocks until its batch completes, its
// context expires, or the queue rejects it. sample keys deterministic
// fault injection (negative = none); label enables live accuracy
// tracking in /metrics (negative = unlabeled).
func (s *Server) Infer(ctx context.Context, input []float64, sample, label int) (Prediction, error) {
	return s.infer(ctx, input, sample, label, false)
}

// inferQueued is the HTTP layer's queue submission: it copies input into
// a pool-owned buffer whose ownership transfers to the worker at
// enqueue. The caller's (pooled) input slice is therefore free for reuse
// the moment this returns — even when the request was abandoned and its
// batch hasn't run yet.
func (s *Server) inferQueued(ctx context.Context, input []float64, sample, label int) (Prediction, error) {
	if len(input) != s.eng.InLen() {
		return Prediction{}, fmt.Errorf("serve: input length %d, engine expects %d", len(input), s.eng.InLen())
	}
	owned := getInput(len(input))
	copy(owned, input)
	return s.infer(ctx, owned, sample, label, true)
}

func (s *Server) infer(ctx context.Context, input []float64, sample, label int, owned bool) (Prediction, error) {
	if len(input) != s.eng.InLen() {
		if owned {
			putInput(input)
		}
		return Prediction{}, fmt.Errorf("serve: input length %d, engine expects %d", len(input), s.eng.InLen())
	}
	// A dead request must not take a queue slot: a caller that gave up
	// before submitting would otherwise occupy the bounded queue (and a
	// batch seat) until a worker noticed, pushing live requests into
	// ErrOverloaded under load. Count it as accepted and immediately
	// expired so accepted = completed + expired + failed stays exact.
	if err := ctx.Err(); err != nil {
		if owned {
			putInput(input)
		}
		s.met.accept()
		s.met.expire()
		return Prediction{}, err
	}
	req := &request{
		ctx:    ctx,
		input:  input,
		sample: sample,
		label:  label,
		enq:    time.Now(),
		done:   make(chan result, 1),
		owned:  owned,
	}
	// The RLock pairs with Close's Lock: no submission can race the
	// queue close, so sends never hit a closed channel.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		if owned {
			putInput(input)
		}
		return Prediction{}, ErrClosed
	}
	select {
	case s.queue <- req:
		// Ownership of an owned input now rests with the worker that
		// will run (or skip) this request's batch.
		s.mu.RUnlock()
	default:
		s.mu.RUnlock()
		if owned {
			putInput(input)
		}
		s.met.reject()
		return Prediction{}, ErrOverloaded
	}
	s.met.accept()
	select {
	case r := <-req.done:
		// The worker settled the request (and its accounting) before
		// delivering; nothing to count here.
		return r.pred, r.err
	case <-ctx.Done():
		// Both arms can be ready at once: the worker may have delivered
		// the result in the same instant the deadline fired. Prefer the
		// delivered result — it is real work, already counted as
		// completed — instead of discarding it and double-counting the
		// request as expired.
		select {
		case r := <-req.done:
			return r.pred, r.err
		default:
		}
		if req.settled.CompareAndSwap(false, true) {
			// The batch may still execute; the buffered done channel
			// absorbs the abandoned result, and the worker's failed CAS
			// keeps it out of the counters.
			s.met.expire()
			return Prediction{}, ctx.Err()
		}
		// The worker won the settle race between ctx firing and our CAS;
		// its result is imminent on the buffered channel.
		r := <-req.done
		return r.pred, r.err
	}
}

// InferDirect runs one sample synchronously on the engine's
// single-sample path, bypassing batch formation entirely: no queue
// seat, no company — the shortest possible path to the engine.
// Engines without the SingleEngine capability fall back to the batched
// Infer. The metric identity accepted = completed + expired + failed
// covers direct requests too; their wall latency feeds the same
// percentile window as queued requests (a mode comparison is exactly
// what the split counters are for) but never the engine batch window
// that admission sheds against.
func (s *Server) InferDirect(ctx context.Context, input []float64, sample, label int) (Prediction, error) {
	if s.single == nil {
		return s.Infer(ctx, input, sample, label)
	}
	fr, err := s.inferSync(ctx, input, label, (*Metrics).completeDirect, func() FrameResult {
		return FrameResult{Prediction: s.single.InferOne(input, sample)}
	})
	return fr.Prediction, err
}

// InferFrame runs one stream frame synchronously on the engine's
// FrameEngine capability — the same queue-free path as InferDirect,
// plus the per-stage spike counts and optional timeline a stream event
// carries. Engines without the capability fall back to InferDirect (or
// the batched queue), losing the extra observability but never the
// prediction. Frames land in the same accounting identity as one-shot
// requests (accepted = completed + expired + failed) and additionally
// tick the stream_frames_total ledger.
func (s *Server) InferFrame(ctx context.Context, input []float64, sample, label int, timeline bool) (FrameResult, error) {
	if s.frame == nil {
		pred, err := s.InferDirect(ctx, input, sample, label)
		if err != nil {
			return FrameResult{}, err
		}
		s.met.streamFrame()
		return FrameResult{Prediction: pred}, nil
	}
	return s.inferSync(ctx, input, label, (*Metrics).completeStream, func() FrameResult {
		return s.frame.InferFrame(input, sample, timeline)
	})
}

// inferSync is the synchronous body of InferDirect and InferFrame: it
// checks the input length, counts a dead context as accepted and
// expired (like the queued path), admits the call under the close
// lock, runs it with engine panics contained, and settles the ledger —
// failed, or complete through the caller's completion counter.
func (s *Server) inferSync(ctx context.Context, input []float64, label int,
	complete func(*Metrics, time.Duration, Prediction, int), run func() FrameResult) (FrameResult, error) {
	if len(input) != s.eng.InLen() {
		return FrameResult{}, fmt.Errorf("serve: input length %d, engine expects %d", len(input), s.eng.InLen())
	}
	if err := ctx.Err(); err != nil {
		s.met.accept()
		s.met.expire()
		return FrameResult{}, err
	}
	// The RLock pairs with Close's Lock, exactly like Infer's queue
	// send: once closed is observed false the directWG.Add lands before
	// Close's Wait can start.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return FrameResult{}, ErrClosed
	}
	s.directWG.Add(1)
	s.mu.RUnlock()
	defer s.directWG.Done()
	s.met.accept()
	start := time.Now()
	fr, err := recoverEngine(run)
	if err != nil {
		s.met.fail(1)
		return FrameResult{}, err
	}
	complete(s.met, time.Since(start), fr.Prediction, label)
	return fr, nil
}

// recoverEngine runs one engine call with its panics turned into an
// error: a malformed model or fault stream must fail the request or
// batch, not the server.
func recoverEngine[T any](run func() T) (v T, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("serve: engine panic: %v", p)
		}
	}()
	return run(), nil
}

// BeginDrain announces a graceful shutdown to long-lived observers
// without refusing work yet: the Draining channel closes, stream
// sessions emit their terminal drain event and return, and one-shot
// requests keep being served until Close. Safe to call more than once,
// from any goroutine; Close implies it.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.drain) })
}

// Draining returns a channel closed once BeginDrain (or Close) has
// started.
func (s *Server) Draining() <-chan struct{} { return s.drain }

// Close stops accepting requests, drains everything already queued
// (in-flight batches and direct calls run to completion and deliver
// results), and waits for the workers to exit. Safe to
// call more than once.
func (s *Server) Close() {
	s.BeginDrain()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		s.directWG.Wait()
		return
	}
	s.closed = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
	s.directWG.Wait()
}

// worker is work-conserving: it blocks for the first queued request,
// then takes whatever else is already queued, up to MaxBatch, without
// waiting, and runs that as one batch. Once Close closes the queue it
// drains what remains and exits.
func (s *Server) worker() {
	defer s.wg.Done()
	batch := make([]*request, 0, s.opt.MaxBatch)
	for req := range s.queue {
		batch = append(batch[:0], req)
	fill:
		for len(batch) < s.opt.MaxBatch {
			select {
			case req, ok := <-s.queue:
				if !ok {
					break fill
				}
				batch = append(batch, req)
			default:
				break fill
			}
		}
		s.runBatch(batch)
		clear(batch) // drop request references while idle
	}
}

// runBatch executes one batch: requests whose deadline already expired
// are answered with their context error without costing engine time;
// the rest run as a single engine call.
func (s *Server) runBatch(batch []*request) {
	live := make([]*request, 0, len(batch))
	for _, r := range batch {
		if err := r.ctx.Err(); err != nil {
			if r.settled.CompareAndSwap(false, true) {
				s.met.expire()
			}
			if r.owned {
				putInput(r.input)
				r.input = nil
			}
			r.done <- result{err: err}
			continue
		}
		live = append(live, r)
	}
	if len(live) == 0 {
		return
	}
	inputs := make([][]float64, len(live))
	samples := make([]int, len(live))
	for i, r := range live {
		inputs[i] = r.input
		samples[i] = r.sample
	}
	t0 := time.Now()
	preds, err := s.runEngine(inputs, samples)
	// The engine is done reading inputs (runEngine recovers panics), so
	// owned buffers recycle here regardless of the outcome.
	for _, r := range live {
		if r.owned {
			putInput(r.input)
			r.input = nil
		}
	}
	if err != nil {
		for _, r := range live {
			if r.settled.CompareAndSwap(false, true) {
				s.met.fail(1)
			}
			r.done <- result{err: err}
		}
		return
	}
	now := time.Now()
	// Recorded even when every client of the batch has abandoned it: the
	// engine paid the time either way, and the admission layer's rolling
	// p99 must keep learning under deadline storms.
	s.met.batchLatency(now.Sub(t0))
	for i, r := range live {
		if r.settled.CompareAndSwap(false, true) {
			s.met.complete(now.Sub(r.enq), preds[i], r.label)
		}
		r.done <- result{pred: preds[i]}
	}
	s.met.batchDone(len(live))
	if cr, ok := s.eng.(ChunkReporter); ok {
		s.met.setParallelChunks(cr.ParallelChunks())
	}
}

// runEngine runs one batch on the engine with panics contained.
func (s *Server) runEngine(inputs [][]float64, samples []int) ([]Prediction, error) {
	preds, err := recoverEngine(func() []Prediction { return s.eng.InferBatch(inputs, samples) })
	if err == nil && len(preds) != len(inputs) {
		return nil, fmt.Errorf("serve: engine returned %d predictions for %d inputs", len(preds), len(inputs))
	}
	return preds, err
}
