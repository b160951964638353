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
	loadFixture(t)
	inputs := make([][]float64, n)
	streams := make([]*fault.Stream, n)
	for i := range inputs {
		inputs[i] = fixture.x.Data[i*256 : (i+1)*256]
		if inj != nil && i%2 == 1 {
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

// TestInferBatchParallelMatchesSequential is the pool differential:
// InferMany on a pool must be bit-identical to per-sample InferOne at
// every worker count — including counts above the batch size — on
// every engine and pipeline variant, with per-sample fault streams
// active. Every sample is its own chunk, and min(workers, n) workers
// are engaged, so a batch of 2 on 2 workers runs on both.
func TestInferBatchParallelMatchesSequential(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 7, Drop: 0.15, Jitter: 2, StuckSilent: 0.03, ThresholdNoise: 0.08})
	if err != nil {
		t.Fatal(err)
	}
	engines := []EngineKind{EngineClocked, EngineEvent, EngineQuant}
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(ParallelOpts{Workers: workers})
		for _, n := range []int{1, 2, 10, 32, 70} {
			inputs, streams := parallelInputs(t, n, inj)
			for _, engine := range engines {
				for ci, cfg := range scratchConfigs {
					if engine == EngineEvent {
						cfg.EarlyExit = ci%2 == 1
					}
					before := p.Chunks()
					got := m.InferMany(inputs, cfg, InferOpts{Pool: p, Faults: streams, Engine: engine})
					if d := p.Chunks() - before; d != uint64(n) {
						t.Fatalf("w=%d n=%d engine %d: dispatched %d chunks, want %d", workers, n, engine, d, n)
					}
					// An engaged worker sizes its scratch before claiming;
					// scratches only grow, so the count never drops.
					sized := 0
					for _, sc := range p.scr {
						if sc.maxLen > 0 {
							sized++
						}
					}
					if engaged := min(workers, n); sized < engaged {
						t.Fatalf("w=%d n=%d: %d worker scratches used, want ≥ %d", workers, n, sized, engaged)
					}
					want := perSample(m, inputs, cfg, streams, engine)
					if len(got) != len(want) {
						t.Fatalf("w=%d n=%d engine %d cfg %d: %d results, want %d", workers, n, engine, ci, len(got), len(want))
					}
					for i := range got {
						sameResult(t, fmt.Sprintf("w=%d n=%d engine %d cfg %d sample %d", workers, n, engine, ci, i), got[i], want[i])
					}
				}
			}
		}
		p.Close()
	}
}

// TestInferBatchParallelNilPool pins the nil-pool fallback to the
// sequential per-sample loop (freshly allocated results).
func TestInferBatchParallelNilPool(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inputs, _ := parallelInputs(t, 5, nil)
	cfg := RunConfig{}
	got := m.InferMany(inputs, cfg, InferOpts{Pool: nil})
	want := perSample(m, inputs, cfg, nil, EngineClocked)
	for i := range got {
		sameResult(t, fmt.Sprintf("sample %d", i), got[i], want[i])
	}
}

// TestInferBatchParallelZeroAllocs gates the per-worker arena claim:
// once every worker's scratch is warm, a steady-state parallel batch —
// including the fan-out machinery itself — allocates nothing.
func TestInferBatchParallelZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on multi-goroutine paths")
	}
	loadFixture(t)
	m := fixture.model()
	p := NewPool(ParallelOpts{Workers: 4})
	defer p.Close()
	inputs, _ := parallelInputs(t, 32, nil)
	cfg := RunConfig{EarlyFire: true}
	opts := InferOpts{Pool: p}
	p.Warm(m, inputs, cfg) // deterministic: any worker can take any sample
	for i := 0; i < 2; i++ {
		m.InferMany(inputs, cfg, opts)
	}
	if n := testing.AllocsPerRun(20, func() { m.InferMany(inputs, cfg, opts) }); n != 0 {
		t.Errorf("InferMany on a pool allocates %.1f/op, want 0", n)
	}
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
// with the same formatted panic, both single-sample and inside a
// pool-sharded InferMany, where the worker's panic must reach the
// caller and leave the pool serving correct results afterwards.
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
			pooled := InferOpts{Engine: eng, Pool: p}
			expectPanic(t, "pooled InferMany", func() {
				m.InferMany([][]float64{good, bad, good, good}, RunConfig{}, pooled)
			})
			inputs := [][]float64{good, fixture.x.Data[256:512], fixture.x.Data[512:768]}
			got := m.InferMany(inputs, RunConfig{}, pooled)
			for i, in := range inputs {
				sameResult(t, fmt.Sprintf("after panic, sample %d", i), got[i], m.InferOne(in, RunConfig{}, opts))
			}
		})
	}
}

// TestInferBatchParallelStress is the -race stress: more workers than
// chunks, a single worker, and concurrent Each traffic on a shared pool
// interleaved with batch calls consumed under a caller lock (the serve
// engine pattern).
func TestInferBatchParallelStress(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	cfg := RunConfig{EarlyFire: true}
	inputs, _ := parallelInputs(t, 20, nil)
	want := perSample(m, inputs, cfg, nil, EngineClocked)

	// Workers far above the chunk count: only some claim work.
	p8 := NewPool(ParallelOpts{Workers: 8})
	for trial := 0; trial < 20; trial++ {
		got := m.InferMany(inputs, cfg, InferOpts{Pool: p8})
		for i := range got {
			sameResult(t, fmt.Sprintf("w8 trial %d sample %d", trial, i), got[i], want[i])
		}
	}
	p8.Close()

	// Workers = 1 runs on the caller's goroutine.
	p1 := NewPool(ParallelOpts{Workers: 1})
	got := m.InferMany(inputs, cfg, InferOpts{Pool: p1})
	for i := range got {
		sameResult(t, fmt.Sprintf("w1 sample %d", i), got[i], want[i])
	}
	p1.Close()

	// Shared pool under concurrent callers: batch results consumed under
	// an external lock, Each results through disjoint slices.
	shared := NewPool(ParallelOpts{Workers: 4})
	defer shared.Close()
	var batchMu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for trial := 0; trial < 5; trial++ {
				if g%2 == 0 {
					batchMu.Lock()
					rs := m.InferMany(inputs, cfg, InferOpts{Pool: shared})
					for i := range rs {
						if rs[i].Pred != want[i].Pred {
							t.Errorf("g%d trial %d sample %d: pred %d, want %d", g, trial, i, rs[i].Pred, want[i].Pred)
						}
					}
					batchMu.Unlock()
				} else {
					sum := make([]int, 40)
					shared.Each(len(sum), 3, func(lo, hi, w int) {
						for i := lo; i < hi; i++ {
							sum[i] = i + g
						}
					})
					for i := range sum {
						if sum[i] != i+g {
							t.Errorf("g%d trial %d: Each index %d = %d", g, trial, i, sum[i])
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if shared.Chunks() == 0 {
		t.Error("shared pool dispatched no chunks")
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
// batches on InferMany's pool path; ns/sample at workers=1 vs N
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
				// Warm sizes every worker's arena for the whole batch (a
				// worker may claim any subset of samples on a given call),
				// then one live call starts the goroutines.
				p.Warm(m, inputs, cfg)
				opts := InferOpts{Pool: p}
				m.InferMany(inputs, cfg, opts)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.InferMany(inputs, cfg, opts)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/sample")
			})
		}
	}
}
