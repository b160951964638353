package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/fault"
)

// ParallelOpts tunes the data-parallel pool (NewPool).
type ParallelOpts struct {
	// Workers is the number of pool workers; 0 or negative means one per
	// GOMAXPROCS.
	Workers int
}

// poolCall is one parallel invocation: either a generic index-range
// function (fn != nil) or a batch inference (m != nil). It is owned by
// the pool and reused across calls so the steady-state parallel hot path
// allocates nothing.
type poolCall struct {
	// generic mode
	fn func(lo, hi, worker int)

	// inference mode: one sample per chunk
	m      *Model
	body   engineBody
	inputs [][]float64
	cfg    RunConfig
	faults []*fault.Stream
	res    []Result

	n       int // total items
	chunk   int // items per claimed chunk
	nChunks int
	next    atomic.Int64 // next chunk index to claim

	panicMu  sync.Mutex
	panicVal any // first worker panic, re-raised on the caller

	wg sync.WaitGroup
}

// Pool is a bounded worker pool for data-parallel execution: batch
// inference sharded one sample per claimed chunk (InferMany with
// InferOpts.Pool, on any engine) and generic index-range fan-out (Each,
// used by Evaluate and the coding sweeps). Each worker owns one
// InferScratch, so the inference hot path stays at zero steady-state
// allocations per worker; the shared scatter plans on the model are
// read lock-free by every worker.
//
// Calls are serialized internally (one parallel call runs at a time),
// so concurrent Each calls are safe: their results flow through fn.
// Concurrent InferMany callers need one extra rule — returned
// results alias pool memory and are overwritten by the next call, so
// callers sharing a pool must consume (copy out of) results under their
// own lock before another call can start; internal/serve's TTFSEngine
// does exactly that. Calls must not be nested: fn passed to Each must
// never call back into the same pool.
//
// A nil *Pool is accepted everywhere and means "run sequentially".
type Pool struct {
	workers int

	mu      sync.Mutex // serializes calls, guards state below
	started bool
	closed  bool
	calls   chan *poolCall
	scr     []*InferScratch
	results []Result
	call    poolCall

	chunks atomic.Uint64 // cumulative chunks dispatched (all modes)
}

// NewPool builds a pool. Worker goroutines start lazily on the first
// parallel call; Close releases them.
func NewPool(opts ParallelOpts) *Pool {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: w}
	p.scr = make([]*InferScratch, w)
	for i := range p.scr {
		p.scr[i] = &InferScratch{}
	}
	return p
}

// Workers returns the pool's worker count (1 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Chunks returns the cumulative number of work chunks the pool has
// dispatched (0 for a nil pool) — the parallel_chunks serving metric.
func (p *Pool) Chunks() uint64 {
	if p == nil {
		return 0
	}
	return p.chunks.Load()
}

// Close stops the worker goroutines. The pool runs sequentially (on the
// caller's goroutine) afterwards; Close is idempotent.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		if p.started {
			close(p.calls)
		}
	}
	p.mu.Unlock()
}

// start launches the workers once. Caller holds p.mu.
func (p *Pool) start() {
	if p.started {
		return
	}
	p.started = true
	p.calls = make(chan *poolCall, p.workers)
	for w := 0; w < p.workers; w++ {
		go p.worker(w)
	}
}

func (p *Pool) worker(wid int) {
	for c := range p.calls {
		p.serve(c, wid)
		c.wg.Done()
	}
}

// serve claims chunks off one call until none remain. A panic in a
// chunk is recorded (first wins), further claims are cancelled, and the
// call's initiator re-raises it — matching the sequential path's panic
// semantics without killing the worker.
func (p *Pool) serve(c *poolCall, wid int) {
	defer func() {
		if r := recover(); r != nil {
			c.panicMu.Lock()
			if c.panicVal == nil {
				c.panicVal = r
			}
			c.panicMu.Unlock()
			c.next.Store(int64(c.nChunks)) // cancel remaining chunks
		}
	}()
	var sc *InferScratch
	if c.fn == nil {
		// Inference mode: prepare this worker's scratch once per call.
		// The arena rewinds exactly once, so every sample this worker
		// claims lands in fresh arena space.
		sc = c.m.prepare(p.scr[wid])
	}
	for {
		i := int(c.next.Add(1)) - 1
		if i >= c.nChunks {
			return
		}
		lo := i * c.chunk
		hi := lo + c.chunk
		if hi > c.n {
			hi = c.n
		}
		if c.fn != nil {
			c.fn(lo, hi, wid)
			continue
		}
		c.res[i] = c.m.inferSample(sc, c.body, c.inputs, c.cfg, c.faults, i)
	}
}

// run engages w workers on the prepared p.call and waits. Caller holds
// p.mu and has filled the call descriptor.
func (p *Pool) run(w int) {
	p.start()
	c := &p.call
	c.wg.Add(w)
	for i := 0; i < w; i++ {
		p.calls <- c
	}
	c.wg.Wait()
	// drop caller references so the pool doesn't pin inputs between calls
	pv := c.panicVal
	c.fn, c.m, c.body, c.inputs, c.faults, c.res, c.panicVal = nil, nil, nil, nil, nil, nil, nil
	if pv != nil {
		panic(pv)
	}
}

// Warm primes every worker's scratch for the given model and batch by
// running the whole batch sequentially (clocked) on each, plus the
// pool's result backing. A worker can claim any subset of the samples,
// so after Warm, same-shaped clocked calls start at zero steady-state
// allocations. snnserve calls this at startup.
func (p *Pool) Warm(m *Model, inputs [][]float64, cfg RunConfig) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sc := range p.scr {
		m.inferSeq(sc, EngineClocked.body(), inputs, cfg, nil)
	}
	p.takeResults(len(inputs))
}

// takeResults returns a zeroed pool-owned result slice.
func (p *Pool) takeResults(n int) []Result {
	if cap(p.results) < n {
		p.results = make([]Result, n)
	}
	res := p.results[:n]
	for i := range res {
		res[i] = Result{}
	}
	return res
}

// Each runs fn over [0, n) split into chunks of the given size, claimed
// across the pool's workers (work stealing: a fast worker takes more
// chunks). fn receives the half-open range [lo, hi) and the worker
// index in [0, Workers()) — per-worker state indexed by it is never
// touched concurrently. fn must be safe for concurrent invocation on
// disjoint ranges; a panic in fn propagates to the caller after all
// workers stop claiming. A nil or closed pool runs fn sequentially on
// the caller's goroutine with worker index 0.
func (p *Pool) Each(n, chunk int, fn func(lo, hi, worker int)) {
	if n <= 0 {
		return
	}
	if chunk <= 0 {
		chunk = 1
	}
	nChunks := (n + chunk - 1) / chunk
	if p != nil {
		p.chunks.Add(uint64(nChunks))
	}
	w := p.Workers()
	if w > nChunks {
		w = nChunks
	}
	if p == nil || w <= 1 {
		eachSeq(n, chunk, fn)
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		eachSeq(n, chunk, fn)
		return
	}
	c := &p.call
	c.fn = fn
	c.n, c.chunk, c.nChunks = n, chunk, nChunks
	c.next.Store(0)
	p.run(w)
}

// evalChunk sizes per-sample work-stealing chunks for evaluation-style
// fan-out: about four chunks per worker keeps stealing effective when
// per-sample cost varies (early firing, faults).
func evalChunk(n, workers int) int {
	return max(n/(workers*4), 1)
}

func eachSeq(n, chunk int, fn func(lo, hi, worker int)) {
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(lo, hi, 0)
	}
}

// inferMany shards the samples across p's workers, one sample per
// claimed chunk, each worker on its own scratch. Results are
// bit-identical to the sequential loop at any worker count: every
// sample runs the same per-sample pipeline, and fault streams are pure
// functions of (seed, sample, …), so no decision depends on which
// worker ran it or when.
//
// The returned results alias pool memory: they are valid until the
// next call on the same pool (copy Spikes/Potentials to retain them).
func (p *Pool) inferMany(m *Model, body engineBody, inputs [][]float64, cfg RunConfig, faults []*fault.Stream) []Result {
	n := len(inputs)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.chunks.Add(uint64(n))
	w := min(p.workers, n)
	if w <= 1 || p.closed {
		// Sequential fallback on worker 0's scratch: same zero-alloc
		// steady state, same aliasing contract.
		return m.inferSeq(p.scr[0], body, inputs, cfg, faults)
	}
	res := p.takeResults(n)
	c := &p.call
	c.m, c.body, c.inputs, c.cfg, c.faults, c.res = m, body, inputs, cfg, faults, res
	c.n, c.chunk, c.nChunks = n, 1, n
	c.next.Store(0)
	p.run(w)
	return res
}
