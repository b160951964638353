package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// referenceClocked is an independent literal re-implementation of the
// float clocked semantics, modelled on referenceQuant: every unfired
// neuron is tested against θ(f) at every step, each step's arrivals
// are found by scanning the raw spike offsets (no buckets), ε and θ
// come straight from the kernels (no LUTs), rows scatter through
// Stage.Scatter (no plan cache), and every buffer is freshly allocated
// (no scratch). The fault hooks sit where the engine's do. Events and
// Potentials are always filled.
func referenceClocked(m *Model, input []float64, cfg RunConfig) Result {
	adv := cfg.advance(m.T)
	n := len(m.Net.Stages)
	res := Result{Spikes: make([]int, n), Events: make([][]SpikeEvent, n), Latency: (n-1)*adv + m.T}
	times := make([]int, m.Net.InLen)
	for i, u := range input {
		times[i] = -1
		if t, ok := m.K[0].Encode(u); ok {
			times[i] = t
		}
	}
	for si := range m.Net.Stages {
		// fire boundary si: the spikes feeding stage si
		if cfg.Faults != nil {
			cfg.Faults.ApplyTTFS(si, times, m.T)
		}
		for j, t := range times {
			if t >= 0 {
				res.Spikes[si]++
				res.Events[si] = append(res.Events[si], SpikeEvent{Neuron: j, Time: si*adv + t})
			}
		}
		res.TotalSpikes += res.Spikes[si]

		st := &m.Net.Stages[si]
		pot := make([]float64, st.OutLen)
		st.AddBias(pot)
		deliver := func(off int) {
			for idx, t := range times {
				if t == off {
					st.Scatter(idx, m.K[si].Decode(off), pot)
				}
			}
		}
		if st.Output {
			for off := 0; off < m.T; off++ {
				deliver(off)
			}
			res.Pred = snn.ArgMax(pot)
			res.Potentials = pot
			return res
		}
		for off := 0; off < adv && off < m.T; off++ {
			deliver(off)
		}
		out := make([]int, st.OutLen)
		for j := range out {
			out[j] = -1
		}
		for f := 0; f < m.T; f++ {
			if adv+f < m.T {
				deliver(adv + f)
			}
			theta := m.K[si+1].Threshold(float64(f))
			if cfg.Faults != nil {
				theta = cfg.Faults.Threshold(si+1, f, theta)
			}
			for j, u := range pot {
				if out[j] < 0 && u >= theta {
					out[j] = f
				}
			}
		}
		times = out
	}
	return res // unreachable: Validate guarantees an output stage
}

// checkReference runs input through the clocked engine and the
// early-exit event engine and compares both with referenceClocked.
// Clocked must match bit for bit: prediction, latency, per-boundary
// spike counts, every (neuron, time) spike and every output potential.
// The early-exit run shares the hidden stages, so its spikes must match
// too, and its prediction.
func checkReference(m *Model, input []float64, cfg RunConfig) error {
	want := referenceClocked(m, input, cfg)
	cfg.CollectEvents = true
	got := m.InferOne(input, cfg, InferOpts{})
	if got.Pred != want.Pred || got.Latency != want.Latency || got.TotalSpikes != want.TotalSpikes {
		return fmt.Errorf("clocked pred/latency/spikes %d/%d/%d, reference %d/%d/%d",
			got.Pred, got.Latency, got.TotalSpikes, want.Pred, want.Latency, want.TotalSpikes)
	}
	for j := range want.Potentials {
		if got.Potentials[j] != want.Potentials[j] {
			return fmt.Errorf("clocked output potential %d: %v, reference %v", j, got.Potentials[j], want.Potentials[j])
		}
	}
	if err := sameSpikes("clocked", got, want); err != nil {
		return err
	}
	cfg.EarlyExit = true
	ee := m.InferOne(input, cfg, InferOpts{Engine: EngineEvent})
	if ee.Pred != want.Pred {
		return fmt.Errorf("early-exit pred %d, reference %d", ee.Pred, want.Pred)
	}
	return sameSpikes("early-exit", ee, want)
}

// sameSpikes compares per-boundary spike counts and events.
func sameSpikes(engine string, got, want Result) error {
	for b := range want.Spikes {
		if got.Spikes[b] != want.Spikes[b] || len(got.Events[b]) != len(want.Events[b]) {
			return fmt.Errorf("%s boundary %d: %d spikes (%d events), reference %d",
				engine, b, got.Spikes[b], len(got.Events[b]), want.Spikes[b])
		}
		for i, e := range want.Events[b] {
			if got.Events[b][i] != e {
				return fmt.Errorf("%s boundary %d spike %d: %+v, reference %+v", engine, b, i, got.Events[b][i], e)
			}
		}
	}
	return nil
}

// The event engine (and the clocked engine it shares its hidden stages
// with) agrees with the literal reference spike for spike on the
// trained fixture, for both pipelines.
func TestEventEngineAgreesOnFixture(t *testing.T) {
	eachKernel(t, func() {
		loadFixture(t)
		m := fixture.model()
		for i := 0; i < 20; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			for _, cfg := range []RunConfig{{}, {EarlyFire: true}} {
				if err := checkReference(m, in, cfg); err != nil {
					t.Fatalf("sample %d %+v: %v", i, cfg, err)
				}
			}
		}
	})
}

// An inhibitory arrival at the first step of a fire phase must cancel
// a crossing the previous phase's potential would have made. The
// fixture's conv weights include negatives, and a short EF start (T/4)
// puts many arrivals inside the fire phase, so cancellations occur
// naturally; agreement with the reference is the assertion.
func TestEventEngineInhibitoryCancellation(t *testing.T) {
	eachKernel(t, func() {
		loadFixture(t)
		m := fixture.model()
		for i := 20; i < 60; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			if err := checkReference(m, in, RunConfig{EarlyFire: true, EFStart: m.T / 4}); err != nil {
				t.Fatalf("sample %d: %v", i, err)
			}
		}
	})
}

// Property: the match holds across random kernels, horizons, inputs,
// EF start times and fault streams on the handcrafted network, with
// inhibitory weights that push potentials back below the threshold.
func TestClockedMatchesReferenceProperty(t *testing.T) {
	eachKernel(t, func() {
		net := tinyNet()
		net.Stages[0].W.Data[5] = -0.7
		net.Stages[0].W.Data[9] = -0.4
		f := func(seed uint64) bool {
			r := tensor.NewRNG(seed)
			m, err := NewModel(net, 10+r.Intn(50), r.Range(1, 12), r.Range(0, 2))
			if err != nil {
				return true
			}
			in := []float64{r.Float64(), r.Float64(), r.Float64()}
			cfg := RunConfig{}
			if r.Intn(2) == 0 {
				cfg = RunConfig{EarlyFire: true, EFStart: 1 + r.Intn(m.T)}
			}
			if r.Intn(3) == 0 {
				inj, err := fault.New(fault.Config{
					Seed:           seed,
					Drop:           r.Range(0, 0.3),
					Jitter:         r.Intn(3),
					StuckSilent:    r.Range(0, 0.1),
					StuckFire:      r.Range(0, 0.05),
					ThresholdNoise: r.Range(0, 0.1) * float64(r.Intn(2)),
				})
				if err != nil {
					return true
				}
				cfg.Faults = inj.Sample(r.Intn(50))
			}
			if err := checkReference(m, in, cfg); err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatal(err)
		}
	})
}

// Fault streams — spike faults, threshold noise (the per-step sweep
// path) and both together — keep the match on the fixture.
func TestClockedMatchesReferenceUnderFaults(t *testing.T) {
	eachKernel(t, func() {
		loadFixture(t)
		m := fixture.model()
		for name, fc := range map[string]fault.Config{
			"spike-faults":    {Seed: 11, Drop: 0.2, Jitter: 2, StuckSilent: 0.05, StuckFire: 0.02},
			"threshold-noise": {Seed: 5, ThresholdNoise: 0.1},
			"everything":      {Seed: 17, Drop: 0.15, Jitter: 1, StuckSilent: 0.03, ThresholdNoise: 0.05},
		} {
			inj, err := fault.New(fc)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 15; i++ {
				in := fixture.x.Data[i*256 : (i+1)*256]
				for _, cfg := range []RunConfig{{}, {EarlyFire: true}} {
					cfg.Faults = inj.Sample(i)
					if err := checkReference(m, in, cfg); err != nil {
						t.Fatalf("%s sample %d ef=%v: %v", name, i, cfg.EarlyFire, err)
					}
				}
			}
		}
	})
}
