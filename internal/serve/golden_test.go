package serve

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/fault"
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

// Pool-backed serving must stay bit-identical to direct inference for
// both engine kinds — the data-parallel path changes scheduling, never
// results — and the parallel_chunks metric must surface the pool's
// dispatch count.
func TestServedWithPoolMatchesDirect(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	m, err := core.NewModel(fx.Conv.Net, 40, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := fault.New(fault.Config{Seed: 29, Drop: 0.1, Jitter: 1, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	run := core.RunConfig{EarlyFire: true}
	sampleLen := fx.Conv.Net.InLen
	const n = 24

	serveAll := func(t *testing.T, s *Server) []Prediction {
		t.Helper()
		got := make([]Prediction, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				in := fx.X.Data[i*sampleLen : (i+1)*sampleLen]
				sample := -1
				if i%2 == 1 { // mixed batch: odd samples carry faults
					sample = i
				}
				var err error
				got[i], err = s.Infer(context.Background(), in, sample, -1)
				if err != nil {
					t.Errorf("sample %d: %v", i, err)
				}
			}(i)
		}
		wg.Wait()
		return got
	}

	t.Run("ttfs", func(t *testing.T) {
		pool := core.NewPool(core.ParallelOpts{Workers: 4})
		defer pool.Close()
		s := New(&TTFSEngine{Model: m, Run: run, Faults: inj, Pool: pool},
			Options{MaxBatch: 16})
		got := serveAll(t, s)
		snap := s.Metrics().Snapshot()
		s.Close()
		for i := 0; i < n; i++ {
			cfg := run
			if i%2 == 1 {
				cfg.Faults = inj.Sample(i)
			}
			ref := m.InferOne(fx.X.Data[i*sampleLen:(i+1)*sampleLen], cfg, core.InferOpts{})
			if got[i].Pred != ref.Pred || got[i].Latency != ref.Latency || got[i].TotalSpikes != ref.TotalSpikes {
				t.Fatalf("sample %d: served (%d,%d,%d) != direct (%d,%d,%d)",
					i, got[i].Pred, got[i].Latency, got[i].TotalSpikes, ref.Pred, ref.Latency, ref.TotalSpikes)
			}
			for j := range ref.Potentials {
				if math.Float64bits(got[i].Potentials[j]) != math.Float64bits(ref.Potentials[j]) {
					t.Fatalf("sample %d: potential %d not bit-identical", i, j)
				}
			}
		}
		if snap.ParallelChunks == 0 {
			t.Log("warning: no multi-sample batches reached the pool (timing); parallel_chunks stayed 0")
		} else if snap.ParallelChunks != pool.Chunks() {
			t.Fatalf("parallel_chunks %d != pool count %d", snap.ParallelChunks, pool.Chunks())
		}
	})

	t.Run("scheme", func(t *testing.T) {
		pool := core.NewPool(core.ParallelOpts{Workers: 4})
		defer pool.Close()
		sch := coding.Burst{}
		const steps = 24
		s := New(&SchemeEngine{Net: fx.Conv.Net, Scheme: sch, Steps: steps, Faults: inj, Pool: pool},
			Options{MaxBatch: 16})
		got := serveAll(t, s)
		snap := s.Metrics().Snapshot()
		s.Close()
		for i := 0; i < n; i++ {
			opts := coding.RunOpts{Steps: steps}
			if i%2 == 1 {
				opts.Faults = inj.Sample(i)
			}
			ref := sch.Run(fx.Conv.Net, fx.X.Data[i*sampleLen:(i+1)*sampleLen], opts)
			if got[i].Pred != ref.Pred || got[i].TotalSpikes != ref.TotalSpikes {
				t.Fatalf("sample %d: served (%d,%d) != direct (%d,%d)",
					i, got[i].Pred, got[i].TotalSpikes, ref.Pred, ref.TotalSpikes)
			}
		}
		if snap.ParallelChunks == 0 {
			t.Log("warning: no multi-sample batches reached the pool (timing); parallel_chunks stayed 0")
		}
	})
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
