package coding

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

func mustInjector(t *testing.T, cfg fault.Config) *fault.Injector {
	t.Helper()
	j, err := fault.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

// With a nil stream — and with a zero-config stream, which exercises
// every hook — each clock-driven scheme must reproduce the fault-free
// simulation bit for bit.
func TestSchemesFaultHooksAreNoOpWhenDisabled(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	net := fx.Conv.Net
	inj := mustInjector(t, fault.Config{Seed: 99}) // all intensities zero
	for _, s := range []Scheme{Rate{}, Rate{Poisson: true, Seed: 4}, Phase{}, Burst{}} {
		for i := 0; i < 5; i++ {
			in := fx.X.Data[i*256 : (i+1)*256]
			plain := s.Run(net, in, RunOpts{Steps: 120, CollectTimeline: true})
			hooked := s.Run(net, in, RunOpts{Steps: 120, CollectTimeline: true, Faults: inj.Sample(i)})
			if plain.Pred != hooked.Pred || plain.TotalSpikes != hooked.TotalSpikes {
				t.Fatalf("%s sample %d: zero-fault stream changed result: pred %d/%d spikes %d/%d",
					s.Name(), i, plain.Pred, hooked.Pred, plain.TotalSpikes, hooked.TotalSpikes)
			}
			for b := range plain.SpikesPerStage {
				if plain.SpikesPerStage[b] != hooked.SpikesPerStage[b] {
					t.Fatalf("%s sample %d: boundary %d spikes %d vs %d",
						s.Name(), i, b, plain.SpikesPerStage[b], hooked.SpikesPerStage[b])
				}
			}
			for j := range plain.Potentials {
				if plain.Potentials[j] != hooked.Potentials[j] {
					t.Fatalf("%s sample %d: potential %d differs", s.Name(), i, j)
				}
			}
			if len(plain.Timeline) != len(hooked.Timeline) {
				t.Fatalf("%s sample %d: timeline length differs", s.Name(), i)
			}
		}
	}
}

// Spike drop must reduce delivered spikes roughly in proportion, for
// every clock-driven scheme.
func TestSchemesDropReducesDeliveredSpikes(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	net := fx.Conv.Net
	in := fx.X.Data[:256]
	inj := mustInjector(t, fault.Config{Seed: 3, Drop: 0.5})
	for _, s := range []Scheme{Rate{}, Phase{}, Burst{}} {
		clean := s.Run(net, in, RunOpts{Steps: 100})
		dropped := s.Run(net, in, RunOpts{Steps: 100, Faults: inj.Sample(0)})
		lo, hi := 0.3*float64(clean.TotalSpikes), 0.7*float64(clean.TotalSpikes)
		if f := float64(dropped.TotalSpikes); f < lo || f > hi {
			t.Fatalf("%s: drop=0.5 delivered %d of %d spikes, want roughly half",
				s.Name(), dropped.TotalSpikes, clean.TotalSpikes)
		}
	}
}

// Stuck-silent input neurons must silence their pixels' spike streams.
func TestSchemesStuckSilentInput(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	net := fx.Conv.Net
	in := fx.X.Data[:256]
	inj := mustInjector(t, fault.Config{Seed: 5, StuckSilent: 1}) // kill everything
	for _, s := range []Scheme{Rate{}, Phase{}, Burst{}} {
		r := s.Run(net, in, RunOpts{Steps: 60, Faults: inj.Sample(0)})
		if r.TotalSpikes != 0 {
			t.Fatalf("%s: fully stuck-silent network still delivered %d spikes", s.Name(), r.TotalSpikes)
		}
	}
}

// Delivery jitter conserves spikes (no drop configured): totals stay
// close to clean (only spikes in flight at the horizon may be missing).
func TestSchemesJitterConservesSpikes(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	net := fx.Conv.Net
	in := fx.X.Data[:256]
	inj := mustInjector(t, fault.Config{Seed: 6, Jitter: 3})
	for _, s := range []Scheme{Rate{}, Phase{}, Burst{}} {
		clean := s.Run(net, in, RunOpts{Steps: 100})
		jittered := s.Run(net, in, RunOpts{Steps: 100, Faults: inj.Sample(0)})
		// jitter perturbs dynamics, so counts drift; they must stay in the
		// same regime rather than collapse or explode
		if f := float64(jittered.TotalSpikes); f < 0.5*float64(clean.TotalSpikes) || f > 1.5*float64(clean.TotalSpikes) {
			t.Fatalf("%s: jitter moved spike count %d -> %d", s.Name(), clean.TotalSpikes, jittered.TotalSpikes)
		}
	}
}

// A faulted sweep must be deterministic for a fixed seed.
func TestEvaluateFaultedDeterministic(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	inj := mustInjector(t, fault.Config{Seed: 11, Drop: 0.2})
	x := tensor.FromSlice(fx.X.Data[:20*256], 20, 256)
	run := func() EvalResult {
		r, err := EvaluateSweep(Rate{}, fx.Conv.Net, x, fx.Labels[:20], SweepOpts{Steps: 150, Stride: 30, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Accuracy != b.Accuracy || a.AvgSpikes != b.AvgSpikes {
		t.Fatalf("faulted evaluation not reproducible: %.3f/%.1f vs %.3f/%.1f",
			a.Accuracy, a.AvgSpikes, b.Accuracy, b.AvgSpikes)
	}
}
