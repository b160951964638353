package core

import (
	"math"
	"testing"

	"repro/internal/snn"
	"repro/internal/tensor"
)

// twoPixelNet is a minimal 2 -> 1 -> 1 network used to pin down the
// early-firing semantics exactly: one hidden neuron summing both inputs
// with weight 1, and a unit-weight output reading it.
func twoPixelNet() *snn.Net {
	return &snn.Net{
		Name: "2px", InShape: []int{2}, InLen: 2,
		Stages: []snn.Stage{
			{Name: "h", Kind: snn.DenseStage,
				W: tensor.FromSlice([]float64{1, 1}, 2, 1), B: tensor.New(1),
				InLen: 2, OutLen: 1},
			{Name: "o", Kind: snn.DenseStage,
				W: tensor.FromSlice([]float64{1}, 1, 1), B: tensor.New(1),
				InLen: 1, OutLen: 1, Output: true},
		},
	}
}

// With τ=2, T=20, t_d=0 and both pixels at 0.4 (each encoding to t=2,
// decoding to e^-1 ≈ 0.368), the baseline hidden neuron integrates both
// (u ≈ 0.736) and the analytic encode fires at local offset
// ceil(−2·ln u) = 1 — global step T+1 = 21. Under early firing the
// whole fire window shifts forward: the arrivals at input offset 2 land
// at local fire step 2−EFStart = 1, where the threshold has already
// decayed to θ(1) < u, so the spike leaves at global step EFStart+1 = 2.
// Same local offset, ~T earlier in wall-clock — exactly the latency
// mechanism of Fig. 3-b.
func TestEarlyFireShiftsSpikesEarlierGlobally(t *testing.T) {
	m, err := NewModel(twoPixelNet(), 20, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.4, 0.4}

	base := m.InferOne(in, RunConfig{CollectSpikeTimes: true}, InferOpts{})
	ef := m.InferOne(in, RunConfig{EarlyFire: true, EFStart: 1, CollectSpikeTimes: true}, InferOpts{})

	if len(base.SpikeTimes[1]) != 1 || len(ef.SpikeTimes[1]) != 1 {
		t.Fatalf("hidden spike counts: base %d, ef %d", len(base.SpikeTimes[1]), len(ef.SpikeTimes[1]))
	}
	if got := base.SpikeTimes[1][0]; got != 21 {
		t.Fatalf("baseline hidden spike at global %d, want 21", got)
	}
	if got := ef.SpikeTimes[1][0]; got != 2 {
		t.Fatalf("EF hidden spike at global %d, want 2", got)
	}
	if ef.Latency >= base.Latency {
		t.Fatalf("EF latency %d not below baseline %d", ef.Latency, base.Latency)
	}
}

// A late input arriving after the hidden neuron has fired must be
// dropped (non-guaranteed integration). Weights [1.3, 6] with τ=2,
// T=20: pixel0 = 0.8 spikes at input offset 1 (PSP 1.3·e^-0.5 ≈ 0.79)
// and pixel1 = 0.05 at offset 6 (PSP 6·e^-3 ≈ 0.30).
//   - baseline: u ≈ 1.09 ≥ θ(0) = 1 ⇒ hidden spike at local 0,
//     decoding to ε(0) = 1 at the output;
//   - EF(start=1): at fire step 0 only pixel0 has arrived (0.79 < 1);
//     at step 1 the threshold has fallen to 0.61 ⇒ the neuron fires
//     before pixel1 ever arrives, and the output sees ε(1) ≈ 0.61.
//
// The dropped arrival is visible as a strictly lower output potential.
func TestEarlyFireDropsLateArrivals(t *testing.T) {
	net := twoPixelNet()
	net.Stages[0].W = tensor.FromSlice([]float64{1.3, 6}, 2, 1)
	m, err := NewModel(net, 20, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := []float64{0.8, 0.05}

	base := m.InferOne(in, RunConfig{}, InferOpts{})
	ef := m.InferOne(in, RunConfig{EarlyFire: true, EFStart: 1}, InferOpts{})

	if math.Abs(base.Potentials[0]-1.0) > 1e-9 {
		t.Fatalf("baseline output potential = %v, want 1 (spike at local 0)", base.Potentials[0])
	}
	wantEF := math.Exp(-0.5)
	if math.Abs(ef.Potentials[0]-wantEF) > 1e-9 {
		t.Fatalf("EF output potential = %v, want ε(1) = %v", ef.Potentials[0], wantEF)
	}
}

// Spike accounting: EF never emits more spikes than neurons, and
// dropping late inputs can only reduce (never increase) hidden firing.
func TestEarlyFireSpikeBound(t *testing.T) {
	m, err := NewModel(twoPixelNet(), 20, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(5)
	for trial := 0; trial < 50; trial++ {
		in := []float64{r.Float64(), r.Float64()}
		base := m.InferOne(in, RunConfig{}, InferOpts{})
		ef := m.InferOne(in, RunConfig{EarlyFire: true, EFStart: 1 + r.Intn(20)}, InferOpts{})
		if ef.Spikes[1] > base.Spikes[1] {
			t.Fatalf("EF fired more hidden spikes (%d) than baseline (%d) on %v",
				ef.Spikes[1], base.Spikes[1], in)
		}
	}
}
