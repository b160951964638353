package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// The analytic and clocked baseline engines must agree exactly: this is
// the central equivalence between Eq. 7's closed form and the dynamic-
// threshold clock of Eq. 6.
func TestEnginesAgreeOnFixture(t *testing.T) {
	eachKernel(t, func() {
		loadFixture(t)
		m := fixture.model()
		for i := 0; i < 25; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			if err := verifyEngines(m, in); err != nil {
				t.Fatalf("sample %d: %v", i, err)
			}
		}
	})
}

// Property: engine equivalence holds for random kernels and inputs on
// the handcrafted network.
func TestEnginesAgreeProperty(t *testing.T) {
	net := tinyNet()
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		m, err := NewModel(net, 10+r.Intn(60), r.Range(0.8, 20), r.Range(0, 3))
		if err != nil {
			return true
		}
		in := []float64{r.Float64(), r.Float64(), r.Float64()}
		return verifyEngines(m, in) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyticLatencyMatchesClocked(t *testing.T) {
	m, _ := NewModel(tinyNet(), 20, 5, 0)
	in := []float64{0.5, 0.2, 0.9}
	if got, want := m.InferAnalytic(in).Latency, m.InferOne(in, RunConfig{}, InferOpts{}).Latency; got != want {
		t.Fatalf("latency %d != clocked %d", got, want)
	}
}

func TestVerifyEnginesDetectsCorruption(t *testing.T) {
	// sanity: verifyEngines must actually fail when the engines are fed
	// different models — emulate by perturbing a kernel between runs
	m, _ := NewModel(tinyNet(), 20, 5, 0)
	in := []float64{0.5, 0.2, 0.9}
	clocked := m.InferOne(in, RunConfig{}, InferOpts{})
	m.K[1].Tau *= 3
	analytic := m.InferAnalytic(in)
	same := clocked.TotalSpikes == analytic.TotalSpikes
	if same {
		// potentials must then differ; either way corruption is visible
		for j := range clocked.Potentials {
			if clocked.Potentials[j] != analytic.Potentials[j] {
				return
			}
		}
		t.Fatal("kernel perturbation invisible to both spike counts and potentials")
	}
}

// verifyEngines runs both the clocked and the analytic baseline engines
// on the same input and reports any divergence.
func verifyEngines(m *Model, input []float64) error {
	clocked := m.InferOne(input, RunConfig{}, InferOpts{})
	analytic := m.InferAnalytic(input)
	if clocked.Pred != analytic.Pred {
		return fmt.Errorf("engines disagree on prediction: clocked %d, analytic %d", clocked.Pred, analytic.Pred)
	}
	if clocked.TotalSpikes != analytic.TotalSpikes {
		return fmt.Errorf("engines disagree on spikes: clocked %d, analytic %d", clocked.TotalSpikes, analytic.TotalSpikes)
	}
	for b := range clocked.Spikes {
		if clocked.Spikes[b] != analytic.Spikes[b] {
			return fmt.Errorf("boundary %d spikes differ: clocked %d, analytic %d", b, clocked.Spikes[b], analytic.Spikes[b])
		}
	}
	for j := range clocked.Potentials {
		d := clocked.Potentials[j] - analytic.Potentials[j]
		if d > 1e-9 || d < -1e-9 {
			return fmt.Errorf("output potential %d differs: clocked %v, analytic %v", j, clocked.Potentials[j], analytic.Potentials[j])
		}
	}
	return nil
}

// BenchmarkEngineClocked and BenchmarkEngineAnalytic time the two
// baseline (early firing off) engines on one fixture sample, clocked on
// its warm serving scratch.
func BenchmarkEngineClocked(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	in := fixture.x.Data[:256]
	sc := NewInferScratch(m)
	m.InferOne(in, RunConfig{}, InferOpts{Scratch: sc})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InferOne(in, RunConfig{}, InferOpts{Scratch: sc})
	}
}

func BenchmarkEngineAnalytic(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	in := fixture.x.Data[:256]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InferAnalytic(in)
	}
}

// Parallel evaluation must agree exactly with sequential evaluation —
// the model is read-only during inference.
func TestEvaluateParallelMatchesSequential(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	batch := tensor.FromSlice(fixture.x.Data[:60*256], 60, 256)
	seq, err := Evaluate(m, batch, fixture.labels[:60], EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Evaluate(m, batch, fixture.labels[:60], EvalOptions{Pool: testPool(t, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Accuracy != par.Accuracy || seq.AvgSpikes != par.AvgSpikes {
		t.Fatalf("parallel eval diverged: acc %v/%v spikes %v/%v",
			seq.Accuracy, par.Accuracy, seq.AvgSpikes, par.AvgSpikes)
	}
	for b := range seq.SpikesPerStage {
		if seq.SpikesPerStage[b] != par.SpikesPerStage[b] {
			t.Fatalf("boundary %d differs", b)
		}
	}
}
