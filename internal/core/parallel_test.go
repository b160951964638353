package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/fault"
)

// parallelInputs slices n fixture samples and attaches fault streams to
// the odd ones (mixed nil/faulted, like a real serving batch).
func parallelInputs(t testing.TB, n int, inj *fault.Injector) ([][]float64, []*fault.Stream) {
	t.Helper()
	inputs := fixtureBatch(t, n)
	streams := make([]*fault.Stream, n)
	if inj != nil {
		for i := 1; i < n; i += 2 {
			streams[i] = inj.Sample(i)
		}
	}
	return inputs, streams
}

// perSample is the reference every batch path is pinned against:
// InferOne per input, with the sample's own fault stream.
func perSample(m *Model, inputs [][]float64, cfg RunConfig, streams []*fault.Stream, engine EngineKind) []Result {
	want := make([]Result, len(inputs))
	for i, in := range inputs {
		c := cfg
		if streams != nil {
			c.Faults = streams[i]
		}
		want[i] = m.InferOne(in, c, InferOpts{Engine: engine})
	}
	return want
}

// workerScratches returns one scratch per worker index of p, each
// warmed on the whole batch (a worker may claim any subset of it) so
// that steady-state pooled calls allocate nothing.
func workerScratches(m *Model, p *Pool, inputs [][]float64, cfg RunConfig) []*InferScratch {
	scr := make([]*InferScratch, p.Workers())
	for w := range scr {
		scr[w] = NewInferScratch(m)
		for _, in := range inputs {
			m.InferOne(in, cfg, InferOpts{Scratch: scr[w]})
		}
	}
	return scr
}

// pooledBatch builds the pooled batch loop internal/serve runs as one
// closure, so a steady-state call allocates nothing: Pool.Each claims
// the samples one per chunk, each sample runs InferOne with its own
// fault stream on its worker's scratch, and keep receives the result
// before that scratch is reused.
func pooledBatch(m *Model, p *Pool, scr []*InferScratch, inputs [][]float64, cfg RunConfig, streams []*fault.Stream, engine EngineKind, keep func(i int, r Result)) func() {
	fn := func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			c := cfg
			if streams != nil {
				c.Faults = streams[i]
			}
			keep(i, m.InferOne(inputs[i], c, InferOpts{Scratch: scr[worker], Engine: engine}))
		}
	}
	return func() { p.Each(len(inputs), 1, fn) }
}

// cloneResult copies the arena-backed slices out of r.
func cloneResult(r Result) Result {
	r.Spikes = append([]int(nil), r.Spikes...)
	r.Potentials = append([]float64(nil), r.Potentials...)
	return r
}

// TestInferBatchParallelMatchesSequential is the pool differential: the
// pooled batch loop on per-worker scratches must be bit-identical to
// per-sample InferOne at every worker count — counts above the batch
// size included — on every engine and pipeline variant, with per-sample
// fault streams active. Every sample is its own chunk.
func TestInferBatchParallelMatchesSequential(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 7, Drop: 0.15, Jitter: 2, StuckSilent: 0.03, ThresholdNoise: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{1, 2, 4, 8}
	pools := make([]*Pool, len(counts))
	scrs := make([][]*InferScratch, len(counts))
	for k, workers := range counts {
		pools[k] = NewPool(ParallelOpts{Workers: workers})
		defer pools[k].Close()
		scrs[k] = workerScratches(m, pools[k], nil, RunConfig{})
	}
	for _, n := range []int{1, 2, 10, 32, 70} {
		inputs, streams := parallelInputs(t, n, inj)
		got := make([]Result, n)
		for _, engine := range engines {
			for ci, cfg := range scratchConfigs {
				if engine == EngineEvent {
					cfg.EarlyExit = ci%2 == 1
				}
				want := perSample(m, inputs, cfg, streams, engine)
				for k, p := range pools {
					before := p.Chunks()
					pooledBatch(m, p, scrs[k], inputs, cfg, streams, engine, func(i int, r Result) { got[i] = cloneResult(r) })()
					if d := p.Chunks() - before; d != uint64(n) {
						t.Fatalf("w=%d n=%d engine %d: dispatched %d chunks, want %d", counts[k], n, engine, d, n)
					}
					for i := range got {
						sameResult(t, fmt.Sprintf("w=%d n=%d engine %d cfg %d sample %d", counts[k], n, engine, ci, i), got[i], want[i])
					}
				}
			}
		}
	}
}

// TestInferBatchParallelNilPool pins the nil-pool fallback: the pooled
// batch loop runs on the caller, dispatches no chunks, and matches
// per-sample InferOne.
func TestInferBatchParallelNilPool(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inputs, _ := parallelInputs(t, 5, nil)
	cfg := RunConfig{}
	var p *Pool
	got := make([]Result, len(inputs))
	pooledBatch(m, p, workerScratches(m, p, nil, cfg), inputs, cfg, nil, EngineClocked, func(i int, r Result) { got[i] = cloneResult(r) })()
	if c := p.Chunks(); c != 0 {
		t.Errorf("nil pool dispatched %d chunks, want 0", c)
	}
	want := perSample(m, inputs, cfg, nil, EngineClocked)
	for i := range got {
		sameResult(t, fmt.Sprintf("sample %d", i), got[i], want[i])
	}
}

// TestInferBatchParallelZeroAllocs gates the pooled batch loop: once
// every worker's scratch is warm, a steady-state parallel batch —
// including the fan-out machinery itself — allocates nothing.
func TestInferBatchParallelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on multi-goroutine paths")
	}
	eachKernel(t, func() {
		loadFixture(t)
		m := fixture.model()
		p := NewPool(ParallelOpts{Workers: 4})
		defer p.Close()
		inputs, _ := parallelInputs(t, 32, nil)
		cfg := RunConfig{EarlyFire: true}
		scr := workerScratches(m, p, inputs, cfg)
		run := pooledBatch(m, p, scr, inputs, cfg, nil, EngineClocked, func(int, Result) {})
		for i := 0; i < 2; i++ { // start the workers
			run()
		}
		if n := testing.AllocsPerRun(20, run); n != 0 {
			t.Errorf("pooled batch loop allocates %.1f/op, want 0", n)
		}
	})
}

// TestPoolEach checks coverage, worker-index bounds, the chunk counter,
// and the nil/closed-pool sequential fallbacks.
func TestPoolEach(t *testing.T) {
	p := NewPool(ParallelOpts{Workers: 3})
	defer p.Close()
	out := make([]int, 25)
	var hits sync.Map
	p.Each(len(out), 4, func(lo, hi, w int) {
		if w < 0 || w >= 3 {
			t.Errorf("worker index %d out of range", w)
		}
		hits.Store(lo, hi)
		for i := lo; i < hi; i++ {
			out[i] = i * i
		}
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("index %d not covered: %d", i, v)
		}
	}
	if got := p.Chunks(); got != 7 { // ceil(25/4)
		t.Errorf("Chunks() = %d, want 7", got)
	}

	var nilPool *Pool
	n := 0
	nilPool.Each(5, 2, func(lo, hi, w int) {
		if w != 0 {
			t.Errorf("nil pool worker = %d", w)
		}
		n += hi - lo
	})
	if n != 5 {
		t.Errorf("nil pool covered %d of 5", n)
	}

	closed := NewPool(ParallelOpts{Workers: 2})
	closed.Close()
	n = 0
	closed.Each(5, 2, func(lo, hi, w int) { n += hi - lo })
	if n != 5 {
		t.Errorf("closed pool covered %d of 5", n)
	}
}

// TestPoolPanicPropagates: a panic in one chunk cancels the call,
// reaches the caller, and leaves the pool usable.
func TestPoolPanicPropagates(t *testing.T) {
	p := NewPool(ParallelOpts{Workers: 2})
	defer p.Close()
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("panic did not propagate")
			} else if fmt.Sprint(r) != "boom" {
				t.Errorf("unexpected panic value %v", r)
			}
		}()
		p.Each(10, 1, func(lo, hi, w int) {
			if lo == 3 {
				panic("boom")
			}
		})
	}()
	// pool still works after a panicked call
	n := 0
	var mu sync.Mutex
	p.Each(8, 2, func(lo, hi, w int) {
		mu.Lock()
		n += hi - lo
		mu.Unlock()
	})
	if n != 8 {
		t.Errorf("post-panic Each covered %d of 8", n)
	}
}

// TestInferInputLengthPanics: every engine rejects a wrong-length input
// with the same formatted panic, both single-sample and inside the
// pooled batch loop, where the worker's panic must reach the caller and
// leave the pool serving correct results afterwards.
func TestInferInputLengthPanics(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	good := fixture.x.Data[:256]
	bad := good[:255]
	const want = "core: input length 255, want 256"
	expectPanic := func(t *testing.T, tag string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s: wrong-length input did not panic", tag)
			} else if fmt.Sprint(r) != want {
				t.Errorf("%s: panic %q, want %q", tag, r, want)
			}
		}()
		f()
	}
	for name, eng := range map[string]EngineKind{"clocked": EngineClocked, "event": EngineEvent, "quant": EngineQuant} {
		t.Run(name, func(t *testing.T) {
			opts := InferOpts{Engine: eng}
			expectPanic(t, "InferOne", func() { m.InferOne(bad, RunConfig{}, opts) })

			p := NewPool(ParallelOpts{Workers: 2})
			defer p.Close()
			scr := workerScratches(m, p, nil, RunConfig{})
			noop := func(int, Result) {}
			expectPanic(t, "pooled batch", pooledBatch(m, p, scr, [][]float64{good, bad, good, good}, RunConfig{}, nil, eng, noop))
			inputs := [][]float64{good, fixture.x.Data[256:512], fixture.x.Data[512:768]}
			got := make([]Result, len(inputs))
			pooledBatch(m, p, scr, inputs, RunConfig{}, nil, eng, func(i int, r Result) { got[i] = cloneResult(r) })()
			for i, in := range inputs {
				sameResult(t, fmt.Sprintf("after panic, sample %d", i), got[i], m.InferOne(in, RunConfig{}, opts))
			}
		})
	}
}

// TestEvaluatePoolMatchesSequential pins Evaluate's pool path against
// the sequential sweep, faults included.
func TestEvaluatePoolMatchesSequential(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	x, labels := fixture.x, fixture.labels
	inj, err := fault.New(fault.Config{Seed: 5, Drop: 0.1, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	opts := EvalOptions{Run: RunConfig{EarlyFire: true}, CurveStride: 10, Faults: inj}
	want, err := Evaluate(m, x, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	pool := NewPool(ParallelOpts{Workers: 4})
	defer pool.Close()
	opts.Pool = pool
	got, err := Evaluate(m, x, labels, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Accuracy != want.Accuracy || got.Latency != want.Latency || got.AvgSpikes != want.AvgSpikes {
		t.Fatalf("pool sweep diverged: acc %v/%v latency %d/%d spikes %v/%v",
			got.Accuracy, want.Accuracy, got.Latency, want.Latency, got.AvgSpikes, want.AvgSpikes)
	}
	if len(got.Curve) != len(want.Curve) {
		t.Fatalf("curve lengths differ: %d vs %d", len(got.Curve), len(want.Curve))
	}
	for i := range got.Curve {
		if got.Curve[i] != want.Curve[i] {
			t.Fatalf("curve point %d differs: %+v vs %+v", i, got.Curve[i], want.Curve[i])
		}
	}
}

// BenchmarkInferBatchParallel sweeps worker counts over serving-sized
// batches on the pooled batch loop; ns/sample at workers=1 vs N
// quantifies the parallel win (bounded by GOMAXPROCS — on a single-core
// host the counts tie).
func BenchmarkInferBatchParallel(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	cfg := RunConfig{EarlyFire: true}
	for _, workers := range []int{1, 2, 4} {
		for _, size := range []int{32, 128} {
			inputs, _ := parallelInputs(b, size, nil)
			b.Run(fmt.Sprintf("batch%d/workers%d", size, workers), func(b *testing.B) {
				p := NewPool(ParallelOpts{Workers: workers})
				defer p.Close()
				scr := workerScratches(m, p, inputs, cfg)
				run := pooledBatch(m, p, scr, inputs, cfg, nil, EngineClocked, func(int, Result) {})
				run() // start the workers
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/sample")
			})
		}
	}
}
