package core

import (
	"context"
	"testing"

	"repro/internal/fault"
	"repro/internal/tensor"
)

// With faults disabled the injection hooks must be invisible: a nil
// stream and a zero-config stream both reproduce the seed inference
// bit for bit (predictions, spike counts, spike times, potentials).
func TestInferFaultHooksAreNoOpWhenDisabled(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 123}) // all intensities zero
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []RunConfig{{}, {EarlyFire: true}} {
		cfg.CollectSpikeTimes = true
		for i := 0; i < 10; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			plain := m.InferOne(in, cfg, InferOpts{})
			faulted := cfg
			faulted.Faults = inj.Sample(i)
			if faulted.Faults == nil {
				t.Fatal("zero-config injector must still produce a stream (the hooks run)")
			}
			hooked := m.InferOne(in, faulted, InferOpts{})
			if plain.Pred != hooked.Pred || plain.TotalSpikes != hooked.TotalSpikes || plain.Latency != hooked.Latency {
				t.Fatalf("sample %d: zero-fault stream changed the result: pred %d/%d spikes %d/%d",
					i, plain.Pred, hooked.Pred, plain.TotalSpikes, hooked.TotalSpikes)
			}
			for j := range plain.Potentials {
				if plain.Potentials[j] != hooked.Potentials[j] {
					t.Fatalf("sample %d: potential %d differs: %v vs %v", i, j, plain.Potentials[j], hooked.Potentials[j])
				}
			}
			for b := range plain.SpikeTimes {
				if len(plain.SpikeTimes[b]) != len(hooked.SpikeTimes[b]) {
					t.Fatalf("sample %d boundary %d: spike count differs", i, b)
				}
				for k := range plain.SpikeTimes[b] {
					if plain.SpikeTimes[b][k] != hooked.SpikeTimes[b][k] {
						t.Fatalf("sample %d boundary %d: spike time %d differs", i, b, k)
					}
				}
			}
		}
	}
}

// testPool returns a pool of the given worker count (0 means one per
// GOMAXPROCS), closed when the test ends.
func testPool(t *testing.T, workers int) *Pool {
	p := NewPool(ParallelOpts{Workers: workers})
	t.Cleanup(p.Close)
	return p
}

func evalSubset(t *testing.T, m *Model, n int, opts EvalOptions) EvalResult {
	t.Helper()
	x := tensor.FromSlice(fixture.x.Data[:n*256], n, 256)
	res, err := Evaluate(m, x, fixture.labels[:n], opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Fault streams are pure functions of (seed, sample), so a faulted
// evaluation must not depend on the worker count.
func TestEvaluateFaultedIndependentOfWorkers(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 7, Drop: 0.15, Jitter: 2, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	seq := evalSubset(t, m, 40, EvalOptions{Faults: inj})
	par := evalSubset(t, m, 40, EvalOptions{Faults: inj, Pool: testPool(t, 4)})
	gmp := evalSubset(t, m, 40, EvalOptions{Faults: inj, Pool: testPool(t, 0)}) // one per GOMAXPROCS
	if seq.Accuracy != par.Accuracy || seq.AvgSpikes != par.AvgSpikes {
		t.Fatalf("worker count changed faulted result: %.4f/%.0f vs %.4f/%.0f",
			seq.Accuracy, seq.AvgSpikes, par.Accuracy, par.AvgSpikes)
	}
	if seq.Accuracy != gmp.Accuracy || seq.AvgSpikes != gmp.AvgSpikes {
		t.Fatalf("GOMAXPROCS-sized pool changed faulted result")
	}
	// repeat run is bit-identical (seeded determinism)
	again := evalSubset(t, m, 40, EvalOptions{Faults: inj, Pool: testPool(t, 3)})
	if seq.Accuracy != again.Accuracy || seq.AvgSpikes != again.AvgSpikes {
		t.Fatal("faulted evaluation not reproducible")
	}
}

// Dropping every spike must collapse TTFS to silence, not crash.
func TestEvaluateTotalDropCollapses(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 1, Drop: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := evalSubset(t, m, 20, EvalOptions{Faults: inj})
	if res.AvgSpikes != 0 {
		t.Fatalf("drop=1 left %.1f spikes per sample", res.AvgSpikes)
	}
	clean := evalSubset(t, m, 20, EvalOptions{})
	if res.Accuracy >= clean.Accuracy {
		t.Fatalf("drop=1 accuracy %.2f not below clean %.2f", res.Accuracy, clean.Accuracy)
	}
}

// A panicking sample becomes an error record; the sweep survives and
// the sample counts as misclassified.
func TestEvaluateRecoversPanickingSamples(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	// sabotage a hidden stage's weights so Scatter indexes out of range
	broken := &Model{Net: fault.PerturbWeights(m.Net, 0.0001, 1), K: m.K, T: m.T} // deep-enough copy of stages
	st := &broken.Net.Stages[len(broken.Net.Stages)-1]
	st.W = tensor.FromSlice(append([]float64(nil), st.W.Data[:4]...), 4)
	res, err := Evaluate(broken, tensor.FromSlice(fixture.x.Data[:10*256], 10, 256),
		fixture.labels[:10], EvalOptions{Pool: testPool(t, 2)})
	if err != nil {
		t.Fatalf("sweep died instead of recording sample errors: %v", err)
	}
	if len(res.Errors) != 10 {
		t.Fatalf("%d error records, want 10", len(res.Errors))
	}
	if res.Accuracy != 0 {
		t.Fatalf("failed samples counted as correct: accuracy %.2f", res.Accuracy)
	}
	if res.Errors[0].Index != 0 || res.Errors[0].Err == "" {
		t.Fatalf("malformed error record: %+v", res.Errors[0])
	}
}

func TestEvaluateContextCancellation(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired
	x := tensor.FromSlice(fixture.x.Data[:10*256], 10, 256)
	if _, err := EvaluateContext(ctx, m, x, fixture.labels[:10], EvalOptions{}); err == nil {
		t.Fatal("cancelled context accepted")
	}
	if _, err := EvaluateContext(ctx, m, x, fixture.labels[:10], EvalOptions{Pool: testPool(t, 4)}); err == nil {
		t.Fatal("cancelled context accepted (parallel path)")
	}
}

// A pool with more workers than samples must clamp, not leak goroutines
// or misbehave.
func TestEvaluateWorkerClamp(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	res := evalSubset(t, m, 3, EvalOptions{Pool: testPool(t, 64)})
	if res.N != 3 {
		t.Fatalf("N = %d, want 3", res.N)
	}
	seq := evalSubset(t, m, 3, EvalOptions{})
	if res.Accuracy != seq.Accuracy {
		t.Fatal("clamped parallel run differs from sequential")
	}
}

// An empty evaluation set is an error, not a divide-by-zero panic.
func TestEvaluateEmptySet(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	if _, err := Evaluate(m, tensor.New(0, 256), nil, EvalOptions{}); err == nil {
		t.Fatal("empty evaluation set accepted")
	}
}
