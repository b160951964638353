package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/snn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// Serving through the batching scheduler must be bit-identical to
// direct per-sample evaluation: same predictions, same spike counts,
// same latencies, same output potentials to the last bit — for every
// sample, regardless of how the scheduler happened to group them into
// batches. Accuracy observed by the server's live confusion matrix must
// equal core.Evaluate over the same set.
func TestServedPredictionsMatchEvaluate(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	m, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	run := core.RunConfig{EarlyFire: true}
	const n = 40
	sampleLen := fx.Conv.Net.InLen

	s := New(&TTFSEngine{Model: m, Run: run}, Options{MaxBatch: 16, Workers: 2})
	defer s.Close()

	got := make([]Prediction, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := fx.X.Data[i*sampleLen : (i+1)*sampleLen]
			got[i], errs[i] = s.Infer(context.Background(), in, -1, fx.Labels[i])
		}(i)
	}
	wg.Wait()

	correct := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("sample %d: %v", i, errs[i])
		}
		ref := m.InferOne(fx.X.Data[i*sampleLen:(i+1)*sampleLen], run, core.InferOpts{})
		if got[i].Pred != ref.Pred || got[i].Latency != ref.Latency || got[i].TotalSpikes != ref.TotalSpikes {
			t.Fatalf("sample %d: served (%d,%d,%d) != direct (%d,%d,%d)",
				i, got[i].Pred, got[i].Latency, got[i].TotalSpikes, ref.Pred, ref.Latency, ref.TotalSpikes)
		}
		for j := range ref.Potentials {
			if math.Float64bits(got[i].Potentials[j]) != math.Float64bits(ref.Potentials[j]) {
				t.Fatalf("sample %d: potential %d not bit-identical: %v != %v",
					i, j, got[i].Potentials[j], ref.Potentials[j])
			}
		}
		if got[i].Pred == fx.Labels[i] {
			correct++
		}
	}

	sub := tensor.FromSlice(fx.X.Data[:n*sampleLen], n, 1, 16, 16)
	ev, err := core.Evaluate(m, sub, fx.Labels[:n], core.EvalOptions{Run: run})
	if err != nil {
		t.Fatal(err)
	}
	servedAcc := float64(correct) / float64(n)
	if servedAcc != ev.Accuracy {
		t.Fatalf("served accuracy %v != Evaluate accuracy %v", servedAcc, ev.Accuracy)
	}
	snap := s.Metrics().Snapshot()
	if snap.LabeledTotal != n || snap.Accuracy != ev.Accuracy {
		t.Fatalf("live confusion: labeled %d acc %v, want %d and %v",
			snap.LabeledTotal, snap.Accuracy, n, ev.Accuracy)
	}
	// Under this concurrency some requests should queue behind a busy
	// worker and form multi-sample batches.
	multi := uint64(0)
	for k := 2; k < len(snap.BatchSizeHist); k++ {
		multi += snap.BatchSizeHist[k]
	}
	if multi == 0 {
		t.Log("warning: no multi-sample batches formed (timing); batch grouping untested here")
	}
}

// Fault injection through the server must route each request's
// per-sample stream exactly as direct inference does.
func TestServedFaultInjectionMatchesDirect(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	m, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Seed: 11, Drop: 0.15, Jitter: 2, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	run := core.RunConfig{EarlyFire: true}
	s := New(&TTFSEngine{Model: m, Run: run, Faults: inj}, Options{MaxBatch: 8})
	defer s.Close()

	const n = 12
	sampleLen := fx.Conv.Net.InLen
	got := make([]Prediction, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := fx.X.Data[i*sampleLen : (i+1)*sampleLen]
			// odd samples request fault injection keyed by their index,
			// even samples opt out — a mixed batch
			sample := -1
			if i%2 == 1 {
				sample = i
			}
			got[i], _ = s.Infer(context.Background(), in, sample, -1)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		cfg := run
		if i%2 == 1 {
			cfg.Faults = inj.Sample(i)
		}
		ref := m.InferOne(fx.X.Data[i*sampleLen:(i+1)*sampleLen], cfg, core.InferOpts{})
		if got[i].Pred != ref.Pred || got[i].TotalSpikes != ref.TotalSpikes {
			t.Fatalf("sample %d: served (%d,%d) != direct (%d,%d)",
				i, got[i].Pred, got[i].TotalSpikes, ref.Pred, ref.TotalSpikes)
		}
	}
}

// poolBatch is the pooled-serving fixture: a clocked model, a burst
// scheme engine's parameters, a fault injector, and a 24-sample batch
// whose odd samples carry faults, with every sample's direct reference
// on both engine kinds.
type poolBatch struct {
	m                *core.Model
	net              *snn.Net
	run              core.RunConfig
	inj              *fault.Injector
	inputs           [][]float64
	samples          []int
	wantTTFS, wantSc []Prediction
}

const poolSchemeSteps = 24

func newPoolBatch(t *testing.T) poolBatch {
	t.Helper()
	fx := testutil.TrainedLeNet16()
	m, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Seed: 29, Drop: 0.1, Jitter: 1, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	sampleLen := fx.Conv.Net.InLen
	b := poolBatch{m: m, net: fx.Conv.Net, run: core.RunConfig{EarlyFire: true}, inj: inj,
		inputs: make([][]float64, n), samples: make([]int, n),
		wantTTFS: make([]Prediction, n), wantSc: make([]Prediction, n)}
	for i := range b.inputs {
		b.inputs[i] = fx.X.Data[i*sampleLen : (i+1)*sampleLen]
		b.samples[i] = -1
		cfg := b.run
		opts := coding.RunOpts{Steps: poolSchemeSteps}
		if i%2 == 1 { // mixed batch: odd samples carry faults
			b.samples[i] = i
			cfg.Faults = inj.Sample(i)
			opts.Faults = inj.Sample(i)
		}
		r := m.InferOne(b.inputs[i], cfg, core.InferOpts{})
		b.wantTTFS[i] = Prediction{Pred: r.Pred, Latency: r.Latency, TotalSpikes: r.TotalSpikes, Potentials: r.Potentials}
		sr := coding.Burst{}.Run(b.net, b.inputs[i], opts)
		b.wantSc[i] = Prediction{Pred: sr.Pred, Latency: sr.Steps, TotalSpikes: sr.TotalSpikes, Potentials: sr.Potentials}
	}
	return b
}

func (b poolBatch) ttfs(pool *core.Pool) *TTFSEngine {
	return &TTFSEngine{Model: b.m, Run: b.run, Faults: b.inj, Pool: pool}
}

func (b poolBatch) scheme(pool *core.Pool) *SchemeEngine {
	return &SchemeEngine{Net: b.net, Scheme: coding.Burst{}, Steps: poolSchemeSteps, Faults: b.inj, Pool: pool}
}

// diffPreds reports the first prediction that is not bit-identical to
// its reference: class, latency, spike count and every potential.
func diffPreds(got, want []Prediction) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d predictions, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Pred != w.Pred || g.Latency != w.Latency || g.TotalSpikes != w.TotalSpikes || len(g.Potentials) != len(w.Potentials) {
			return fmt.Errorf("sample %d: (%d,%d,%d,%d potentials) != direct (%d,%d,%d,%d potentials)", i,
				g.Pred, g.Latency, g.TotalSpikes, len(g.Potentials), w.Pred, w.Latency, w.TotalSpikes, len(w.Potentials))
		}
		for j := range w.Potentials {
			if math.Float64bits(g.Potentials[j]) != math.Float64bits(w.Potentials[j]) {
				return fmt.Errorf("sample %d: potential %d not bit-identical: %v != %v", i, j, g.Potentials[j], w.Potentials[j])
			}
		}
	}
	return nil
}

// Pool-backed serving must stay bit-identical to direct inference for
// both engine kinds — the data-parallel path changes scheduling, never
// results. The whole mixed-fault batch first goes straight to
// InferBatch on a 4-worker pool, so the pooled path runs on every run
// of the test, then through the batching server; the parallel_chunks
// metric must surface the pool's dispatch count.
func TestServedWithPoolMatchesDirect(t *testing.T) {
	b := newPoolBatch(t)
	serveAll := func(t *testing.T, s *Server) []Prediction {
		t.Helper()
		got := make([]Prediction, len(b.inputs))
		var wg sync.WaitGroup
		for i := range b.inputs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var err error
				got[i], err = s.Infer(context.Background(), b.inputs[i], b.samples[i], -1)
				if err != nil {
					t.Errorf("sample %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		return got
	}
	for _, tc := range []struct {
		name string
		eng  func(*core.Pool) Engine
		want []Prediction
	}{
		{"ttfs", func(p *core.Pool) Engine { return b.ttfs(p) }, b.wantTTFS},
		{"scheme", func(p *core.Pool) Engine { return b.scheme(p) }, b.wantSc},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := core.NewPool(core.ParallelOpts{Workers: 4})
			defer pool.Close()
			eng := tc.eng(pool)
			if err := diffPreds(eng.InferBatch(b.inputs, b.samples), tc.want); err != nil {
				t.Fatalf("direct batch: %v", err)
			}
			if c := eng.(ChunkReporter).ParallelChunks(); c != uint64(len(b.inputs)) {
				t.Fatalf("direct batch dispatched %d chunks, want one per sample (%d)", c, len(b.inputs))
			}
			s := New(eng, Options{MaxBatch: 16})
			got := serveAll(t, s)
			s.Close()
			if err := diffPreds(got, tc.want); err != nil {
				t.Fatalf("served: %v", err)
			}
			if snap := s.Metrics().Snapshot(); snap.ParallelChunks != pool.Chunks() {
				t.Fatalf("parallel_chunks %d != pool count %d", snap.ParallelChunks, pool.Chunks())
			}
		})
	}
}

// Engines sharing one pool (snnserve -share-pool) stay bit-identical
// under concurrent batches: the pool serializes their parallel calls
// and each engine owns its per-worker scratches. On a 1-worker pool
// every batch runs on its caller's goroutine, on a spare scratch. Under
// -race this is the pooled path's data-race check.
func TestInferBatchSharedPoolRace(t *testing.T) {
	b := newPoolBatch(t)
	for _, workers := range []int{1, 4} {
		pool := core.NewPool(core.ParallelOpts{Workers: workers})
		engs := []Engine{b.ttfs(pool), b.scheme(pool)}
		wants := [][]Prediction{b.wantTTFS, b.wantSc}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				lo, hi := 6*g, 6*g+6
				for trial := 0; trial < 2; trial++ {
					k := (g + trial) % 2
					got := engs[k].InferBatch(b.inputs[lo:hi], b.samples[lo:hi])
					if err := diffPreds(got, wants[k][lo:hi]); err != nil {
						t.Errorf("workers %d goroutine %d engine %d: %v", workers, g, k, err)
					}
				}
			}(g)
		}
		wg.Wait()
		pool.Close()
		if workers > 1 && pool.Chunks() == 0 {
			t.Errorf("workers %d: shared pool dispatched no chunks", workers)
		}
	}
}

// The scheme engine must serve any coding.Scheme unchanged.
func TestSchemeEngineMatchesDirectRun(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	sch := coding.Phase{}
	const steps = 24
	s := New(&SchemeEngine{Net: fx.Conv.Net, Scheme: sch, Steps: steps},
		Options{MaxBatch: 4})
	defer s.Close()

	sampleLen := fx.Conv.Net.InLen
	const n = 6
	var wg sync.WaitGroup
	got := make([]Prediction, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			in := fx.X.Data[i*sampleLen : (i+1)*sampleLen]
			got[i], _ = s.Infer(context.Background(), in, -1, -1)
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		ref := sch.Run(fx.Conv.Net, fx.X.Data[i*sampleLen:(i+1)*sampleLen], coding.RunOpts{Steps: steps})
		if got[i].Pred != ref.Pred || got[i].TotalSpikes != ref.TotalSpikes {
			t.Fatalf("sample %d: served (%d,%d) != direct (%d,%d)",
				i, got[i].Pred, got[i].TotalSpikes, ref.Pred, ref.TotalSpikes)
		}
	}
}
