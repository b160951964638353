package coding

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/snn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// sameSimResult pins bit-identity between a scratch-backed and a
// fresh-allocation simulation result.
func sameSimResult(t *testing.T, tag string, got, want snn.SimResult) {
	t.Helper()
	if got.Pred != want.Pred || got.Steps != want.Steps || got.TotalSpikes != want.TotalSpikes {
		t.Fatalf("%s: pred/steps/spikes (%d,%d,%d) != (%d,%d,%d)",
			tag, got.Pred, got.Steps, got.TotalSpikes, want.Pred, want.Steps, want.TotalSpikes)
	}
	if len(got.SpikesPerStage) != len(want.SpikesPerStage) {
		t.Fatalf("%s: stage counts %d != %d", tag, len(got.SpikesPerStage), len(want.SpikesPerStage))
	}
	for i := range got.SpikesPerStage {
		if got.SpikesPerStage[i] != want.SpikesPerStage[i] {
			t.Fatalf("%s: stage %d spikes %d != %d", tag, i, got.SpikesPerStage[i], want.SpikesPerStage[i])
		}
	}
	if len(got.Potentials) != len(want.Potentials) {
		t.Fatalf("%s: potentials %d != %d", tag, len(got.Potentials), len(want.Potentials))
	}
	for j := range got.Potentials {
		if math.Float64bits(got.Potentials[j]) != math.Float64bits(want.Potentials[j]) {
			t.Fatalf("%s: potential %d not bit-identical: %v != %v",
				tag, j, got.Potentials[j], want.Potentials[j])
		}
	}
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("%s: timeline %d != %d entries", tag, len(got.Timeline), len(want.Timeline))
	}
	for i := range got.Timeline {
		if got.Timeline[i] != want.Timeline[i] {
			t.Fatalf("%s: timeline[%d] %+v != %+v", tag, i, got.Timeline[i], want.Timeline[i])
		}
	}
}

// TestSchemesWithScratchMatchFresh pins the RunOpts.Scratch contract for
// the three baseline coding schemes: one scratch reused across samples,
// schemes, and fault streams produces results bit-identical to
// scratch-free runs.
func TestSchemesWithScratchMatchFresh(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	inj, err := fault.New(fault.Config{Seed: 17, Drop: 0.1, Jitter: 1, StuckSilent: 0.02, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	schemes := []Scheme{
		Rate{},
		Rate{Poisson: true, Seed: 5},
		Phase{},
		Burst{},
	}
	sc := NewScratch() // shared across every scheme: resets must be exact
	for _, s := range schemes {
		for i := 0; i < 4; i++ {
			opts := RunOpts{Steps: 60, CollectTimeline: i%2 == 0}
			if i%2 == 1 { // faults on odd samples
				opts.Faults = inj.Sample(i)
			}
			in := fx.X.Data[i*256 : (i+1)*256]
			fresh := s.Run(fx.Conv.Net, in, opts)
			opts.Scratch = sc
			got := s.Run(fx.Conv.Net, in, opts)
			sameSimResult(t, fmt.Sprintf("%s sample %d", s.Name(), i), got, fresh)
		}
	}
}

// TestScratchSteadyStateAllocs pins per-Run allocations with a warm
// scratch at zero: with the SpikesPerStage tally drawn from the results
// arena, the clock-driven schemes allocate nothing steady-state.
// (Poisson rate coding is excluded: it seeds a fresh generator per Run
// by design, and timelines are excluded because Timeline is retained by
// callers and so must be freshly allocated.)
func TestScratchSteadyStateAllocs(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	in := fx.X.Data[:256]
	for _, s := range []Scheme{Rate{}, Phase{}, Burst{}} {
		sc := NewScratch()
		opts := RunOpts{Steps: 30, Scratch: sc}
		s.Run(fx.Conv.Net, in, opts) // warm buffers
		if n := testing.AllocsPerRun(5, func() { s.Run(fx.Conv.Net, in, opts) }); n != 0 {
			t.Errorf("%s: %.0f allocs/run with warm scratch, want 0", s.Name(), n)
		}
	}
}

// TestEvaluateSweepPoolMatchesSequential pins the pool-parallel sweep
// against the sequential one for the three baseline coding schemes
// under fault injection: per-worker scratches and chunked work stealing
// must not change a single aggregate.
func TestEvaluateSweepPoolMatchesSequential(t *testing.T) {
	fx := testutil.TrainedLeNet16()
	inj, err := fault.New(fault.Config{Seed: 23, Drop: 0.1, Jitter: 1, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	pool := core.NewPool(core.ParallelOpts{Workers: 4})
	defer pool.Close()
	x := tensor.FromSlice(fx.X.Data[:24*256], 24, 256)
	labels := fx.Labels[:24]
	for _, s := range []Scheme{Rate{}, Rate{Poisson: true, Seed: 5}, Phase{}, Burst{}} {
		want, err := EvaluateSweep(s, fx.Conv.Net, x, labels, SweepOpts{Steps: 50, Stride: 10, Faults: inj})
		if err != nil {
			t.Fatal(err)
		}
		got, err := EvaluateSweep(s, fx.Conv.Net, x, labels, SweepOpts{Steps: 50, Stride: 10, Faults: inj, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if got.Accuracy != want.Accuracy || got.AvgSpikes != want.AvgSpikes || got.ConvergenceStep != want.ConvergenceStep {
			t.Fatalf("%s: pool sweep diverged: acc %v/%v spikes %v/%v conv %d/%d",
				s.Name(), got.Accuracy, want.Accuracy, got.AvgSpikes, want.AvgSpikes, got.ConvergenceStep, want.ConvergenceStep)
		}
		if len(got.Curve) != len(want.Curve) {
			t.Fatalf("%s: curve lengths differ: %d vs %d", s.Name(), len(got.Curve), len(want.Curve))
		}
		for i := range got.Curve {
			if got.Curve[i] != want.Curve[i] {
				t.Fatalf("%s: curve point %d differs: %+v vs %+v", s.Name(), i, got.Curve[i], want.Curve[i])
			}
		}
	}
}
