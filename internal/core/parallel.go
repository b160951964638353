package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ParallelOpts tunes the data-parallel pool (NewPool).
type ParallelOpts struct {
	// Workers is the number of pool workers; 0 or negative means one per
	// GOMAXPROCS.
	Workers int
}

// poolCall is one parallel invocation of an index-range function. It is
// owned by the pool and reused across calls so the steady-state parallel
// hot path allocates nothing.
type poolCall struct {
	fn func(lo, hi, worker int)

	n       int // total items
	chunk   int // items per claimed chunk
	nChunks int
	next    atomic.Int64 // next chunk index to claim

	panicMu  sync.Mutex
	panicVal any // first worker panic, re-raised on the caller

	wg sync.WaitGroup
}

// Pool is a bounded worker pool for data-parallel index-range fan-out
// (Each): Evaluate and the coding sweeps spread samples over it, and
// internal/serve's engines spread each batch's samples over it, one
// scratch per worker index. The pool itself holds no inference state;
// the model's shared scatter tables are read lock-free by every worker.
//
// Parallel calls are serialized internally (one runs at a time), so
// concurrent Each calls are safe: their results flow through fn. Calls
// must not be nested: fn passed to Each must never call back into the
// same pool.
//
// A nil *Pool is accepted everywhere and means "run sequentially".
type Pool struct {
	workers int

	mu      sync.Mutex // serializes parallel calls, guards state below
	started bool
	closed  bool
	calls   chan *poolCall
	call    poolCall

	chunks atomic.Uint64 // cumulative chunks dispatched
}

// NewPool builds a pool. Worker goroutines start lazily on the first
// parallel call; Close releases them.
func NewPool(opts ParallelOpts) *Pool {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: w}
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
		c.fn(lo, hi, wid)
	}
}

// Warm is ignored: the pool holds no inference state to prime.
//
// Deprecated: there is nothing to warm; callers that keep a scratch per
// worker index allocate it on their first pooled call.
func (p *Pool) Warm(m *Model, inputs [][]float64, cfg RunConfig) {}

// Each runs fn over [0, n) split into chunks of the given size, claimed
// across the pool's workers (work stealing: a fast worker takes more
// chunks). fn receives the half-open range [lo, hi) and the worker
// index in [0, Workers()). fn must be safe for concurrent invocation on
// disjoint ranges; a panic in fn propagates to the caller after all
// workers stop claiming.
//
// The worker index is exclusive — per-worker state indexed by it is
// touched by one goroutine at a time, across every caller of the pool —
// only when Workers() > 1 and the call has more than one chunk: such
// calls are serialized and each index belongs to one worker. Otherwise
// (a nil or single-worker pool, or a single chunk) fn runs unlocked on
// the caller's goroutine with worker index 0, so two concurrent callers
// both see index 0. A closed pool runs fn sequentially on the caller's
// goroutine.
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
	p.start()
	c := &p.call
	c.fn = fn
	c.n, c.chunk, c.nChunks = n, chunk, nChunks
	c.next.Store(0)
	c.wg.Add(w)
	for i := 0; i < w; i++ {
		p.calls <- c
	}
	c.wg.Wait()
	// drop the caller's closure so the pool doesn't pin it between calls
	pv := c.panicVal
	c.fn, c.panicVal = nil, nil
	if pv != nil {
		panic(pv)
	}
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
