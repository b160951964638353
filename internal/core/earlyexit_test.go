package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/fault"
	"repro/internal/tensor"
)

// TestEarlyExitArgmaxMatchesFixture pins the tentpole contract over the
// whole trained fixture set: the early-exit event engine's argmax is
// identical to the clocked engine's on every sample, its latency never
// exceeds the clocked latency, and — so the feature demonstrably does
// something — at least some samples actually exit early with steps and
// events saved.
func TestEarlyExitArgmaxMatchesFixture(t *testing.T) {
	eachKernel(t, func() {
		loadFixture(t)
		m := fixture.model()
		sc := NewInferScratch(m)
		n := fixture.x.Shape[0]
		for _, base := range []RunConfig{{}, {EarlyFire: true}} {
			exits, stepsSaved, eventsSaved := 0, 0, 0
			for i := 0; i < n; i++ {
				in := fixture.x.Data[i*256 : (i+1)*256]
				clocked := m.InferOne(in, base, InferOpts{})
				cfg := base
				cfg.EarlyExit = true
				ev := m.InferOne(in, cfg, InferOpts{Scratch: sc, Engine: EngineEvent})
				if ev.Pred != clocked.Pred {
					t.Fatalf("ef=%v sample %d: early exit changed prediction: %d vs clocked %d",
						base.EarlyFire, i, ev.Pred, clocked.Pred)
				}
				if ev.Latency > clocked.Latency {
					t.Fatalf("ef=%v sample %d: early-exit latency %d exceeds clocked %d",
						base.EarlyFire, i, ev.Latency, clocked.Latency)
				}
				if !ev.EarlyExit && (ev.StepsSaved != 0 || ev.EventsSaved != 0) {
					t.Fatalf("ef=%v sample %d: savings %d/%d reported without an exit",
						base.EarlyFire, i, ev.StepsSaved, ev.EventsSaved)
				}
				if ev.EarlyExit {
					exits++
					stepsSaved += ev.StepsSaved
					eventsSaved += ev.EventsSaved
				}
			}
			if exits == 0 {
				t.Fatalf("ef=%v: no sample exited early across %d samples", base.EarlyFire, n)
			}
			if stepsSaved == 0 {
				t.Fatalf("ef=%v: %d exits saved zero steps", base.EarlyFire, exits)
			}
			t.Logf("ef=%v: %d/%d early exits, %d steps and %d events saved",
				base.EarlyFire, exits, n, stepsSaved, eventsSaved)
		}
	})
}

// Property: the argmax contract holds across random kernels, horizons,
// inputs, and EF start times on the handcrafted inhibitory network —
// the same surface the engine-equivalence property covers, with early
// exit armed.
func TestEarlyExitProperty(t *testing.T) {
	net := tinyNet()
	net.Stages[0].W.Data[5] = -0.7
	net.Stages[0].W.Data[9] = -0.4
	// inhibition on the output stage too, so remLoss is exercised
	net.Stages[1].W.Data[1] = -0.5
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
		return verifyEarlyExit(m, in, cfg) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestEarlyExitUnderFaults pins the fault half of the correctness bar:
// with per-sample drop/jitter/stuck streams, threshold noise, and both
// together, the early-exit prediction still matches the clocked
// engine's under the same stream, and some samples still exit early —
// the exit rule reads only output potentials and weight bounds, never
// θ, so threshold noise does not disable it.
func TestEarlyExitUnderFaults(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	injectors := map[string]fault.Config{
		"spike-faults":    {Seed: 11, Drop: 0.2, Jitter: 2, StuckSilent: 0.05},
		"threshold-noise": {Seed: 5, ThresholdNoise: 0.1},
		"everything":      {Seed: 17, Drop: 0.15, Jitter: 1, StuckSilent: 0.03, ThresholdNoise: 0.05},
	}
	for name, fc := range injectors {
		inj, err := fault.New(fc)
		if err != nil {
			t.Fatal(err)
		}
		exits := 0
		for i := 0; i < 40; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			cfg := RunConfig{EarlyFire: true, Faults: inj.Sample(i)}
			if err := verifyEarlyExit(m, in, cfg); err != nil {
				t.Fatalf("%s sample %d: %v", name, i, err)
			}
			cfg.EarlyExit = true
			if m.InferOne(in, cfg, InferOpts{Engine: EngineEvent}).EarlyExit {
				exits++
			}
		}
		if exits == 0 {
			t.Fatalf("%s: no sample exited early across 40 samples", name)
		}
		t.Logf("%s: %d/40 early exits", name, exits)
	}
}

// TestEarlyExitZeroAllocs gates the serving claim: the early-exit event
// path on a warm scratch allocates nothing per call.
func TestEarlyExitZeroAllocs(t *testing.T) {
	eachKernel(t, func() {
		loadFixture(t)
		m := fixture.model()
		sc := NewInferScratch(m)
		in := fixture.x.Data[:256]
		for _, cfg := range []RunConfig{{EarlyExit: true}, {EarlyFire: true, EarlyExit: true}} {
			cfg := cfg
			opts := InferOpts{Scratch: sc, Engine: EngineEvent}
			m.InferOne(in, cfg, opts) // warm plan + arenas + bound tables
			if n := testing.AllocsPerRun(20, func() { m.InferOne(in, cfg, opts) }); n != 0 {
				t.Errorf("event early exit (earlyFire=%v) allocates %.1f/op, want 0", cfg.EarlyFire, n)
			}
		}
	})
}

// TestInferManyEventMatchesInferOne pins the event engine's batch
// loop: one scratch across the whole batch, each sample's result —
// early-exit accounting included — equal to its fresh InferOne,
// including per-sample fault streams.
func TestInferManyEventMatchesInferOne(t *testing.T) {
	inputs := fixtureBatch(t, 12)
	m := fixture.model()
	inj, err := fault.New(fault.Config{Seed: 3, Drop: 0.1, Jitter: 1, ThresholdNoise: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	streams := make([]*fault.Stream, len(inputs))
	for i := 0; i < len(inputs); i += 2 {
		streams[i] = inj.Sample(i)
	}
	cfg := RunConfig{EarlyFire: true, EarlyExit: true}
	checkLoop(t, "event", m, NewInferScratch(m), inputs, cfg, streams, EngineEvent)
}

// verifyEarlyExit checks the early-exit event engine's argmax contract
// against the clocked engine on one input: identical predictions, with
// the event run free to stop the output window early.
func verifyEarlyExit(m *Model, input []float64, cfg RunConfig) error {
	clocked := m.InferOne(input, cfg, InferOpts{})
	cfg.EarlyExit = true
	event := m.InferOne(input, cfg, InferOpts{Engine: EngineEvent})
	if clocked.Pred != event.Pred {
		return fmt.Errorf("early exit changed the prediction: clocked %d, event %d (exit=%v, steps saved %d)",
			clocked.Pred, event.Pred, event.EarlyExit, event.StepsSaved)
	}
	if event.Latency > clocked.Latency {
		return fmt.Errorf("early-exit latency %d exceeds clocked %d", event.Latency, clocked.Latency)
	}
	return nil
}

// BenchmarkInferEventEarlyExit times batch-1 latency of the early-exit
// event path against the plain event engine and the clocked engine, all
// on warm scratches. The event engine is the clocked pipeline plus the
// early-exit output stage, so event vs clocked measures the output
// stage's bound bookkeeping and earlyexit vs event what the exit saves.
// Argmax agreement over the full fixture set is asserted before timing
// (in both baseline and early-fire modes), so a regression cannot buy
// speed with wrong answers. The -ef sub-benches cover the early-fire
// pipeline (EFStart = T/2), the serving default.
func BenchmarkInferEventEarlyExit(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	sc := NewInferScratch(m)
	n := fixture.x.Shape[0]
	saved := 0
	for _, base := range []RunConfig{{}, {EarlyFire: true}} {
		exit := base
		exit.EarlyExit = true
		for i := 0; i < n; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			clocked := m.InferOne(in, base, InferOpts{Scratch: sc})
			ev := m.InferOne(in, exit, InferOpts{Scratch: sc, Engine: EngineEvent})
			if ev.Pred != clocked.Pred {
				b.Fatalf("ef=%v sample %d: argmax disagreement %d vs %d",
					base.EarlyFire, i, ev.Pred, clocked.Pred)
			}
			if !base.EarlyFire {
				saved += ev.EventsSaved
			}
		}
	}
	in := fixture.x.Data[:256]
	run := func(name string, cfg RunConfig, opts InferOpts) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.InferOne(in, cfg, opts)
			}
			if cfg.EarlyExit && !cfg.EarlyFire {
				b.ReportMetric(float64(saved)/float64(n), "events_saved/sample")
			}
		})
	}
	ev := InferOpts{Scratch: sc, Engine: EngineEvent}
	ck := InferOpts{Scratch: sc}
	run("event-earlyexit", RunConfig{EarlyExit: true}, ev)
	run("event", RunConfig{}, ev)
	run("clocked", RunConfig{}, ck)
	run("event-earlyexit-ef", RunConfig{EarlyFire: true, EarlyExit: true}, ev)
	run("clocked-ef", RunConfig{EarlyFire: true}, ck)
}
