package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// The event-driven and clocked engines must agree spike-for-spike on
// the trained fixture, for both pipelines.
func TestEventEngineAgreesOnFixture(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	for i := 0; i < 20; i++ {
		in := fixture.x.Data[i*256 : (i+1)*256]
		if err := m.VerifyEnginesEvent(in, RunConfig{}); err != nil {
			t.Fatalf("baseline sample %d: %v", i, err)
		}
		if err := m.VerifyEnginesEvent(in, RunConfig{EarlyFire: true}); err != nil {
			t.Fatalf("EF sample %d: %v", i, err)
		}
	}
}

// Property: equivalence holds across random kernels, inputs, and EF
// start times on the handcrafted network (which carries negative
// weights through its trained stages, exercising candidate
// invalidation on inhibitory arrivals).
func TestEventEngineAgreesProperty(t *testing.T) {
	net := tinyNet()
	// introduce inhibition so arrivals can push potentials back below
	// the threshold after a candidate was queued
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
		return m.VerifyEnginesEvent(in, cfg) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// An inhibitory arrival landing exactly at a queued candidate step must
// cancel the fire (arrival-before-threshold ordering).
func TestEventEngineInhibitoryCancellation(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	// run many EF inferences; the fixture's conv weights include
	// negatives, so cancellations occur naturally — equivalence over
	// the whole eval set is the assertion
	for i := 20; i < 60; i++ {
		in := fixture.x.Data[i*256 : (i+1)*256]
		if err := m.VerifyEnginesEvent(in, RunConfig{EarlyFire: true, EFStart: m.T / 4}); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
	}
}

// TestInferEventWithMatchesFresh pins scratch reuse on the event
// engine: one scratch carried across samples and configs (interleaved
// with clocked calls on the same scratch) stays bit-identical to
// nil-scratch event inference.
func TestInferEventWithMatchesFresh(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	sc := NewInferScratch(m)
	for ci, cfg := range []RunConfig{{}, {EarlyFire: true}, {EarlyFire: true, EFStart: 13}, {CollectSpikeTimes: true}} {
		for i := 0; i < 6; i++ {
			in := fixture.x.Data[i*256 : (i+1)*256]
			got := m.InferOne(in, cfg, InferOpts{Scratch: sc, Engine: EngineEvent})
			sameResult(t, fmt.Sprintf("cfg %d sample %d", ci, i), got, m.InferOne(in, cfg, InferOpts{Engine: EngineEvent}))
			// the clocked engine shares the scratch without interference
			clocked := m.InferOne(in, cfg, InferOpts{Scratch: sc})
			sameResult(t, fmt.Sprintf("cfg %d sample %d clocked", ci, i), clocked, m.InferOne(in, cfg, InferOpts{}))
		}
	}
}

// TestInferEventWithZeroAllocs gates the ROADMAP item: the event engine
// with a warm scratch allocates nothing per call.
func TestInferEventWithZeroAllocs(t *testing.T) {
	loadFixture(t)
	m := fixture.model()
	sc := NewInferScratch(m)
	in := fixture.x.Data[:256]
	for _, cfg := range []RunConfig{{}, {EarlyFire: true}} {
		cfg := cfg
		m.InferOne(in, cfg, InferOpts{Scratch: sc, Engine: EngineEvent}) // warm plan + arenas + heap
		if n := testing.AllocsPerRun(20, func() { m.InferOne(in, cfg, InferOpts{Scratch: sc, Engine: EngineEvent}) }); n != 0 {
			t.Errorf("event InferOne with scratch (earlyFire=%v) allocates %.1f/op, want 0", cfg.EarlyFire, n)
		}
	}
}

func BenchmarkEngineEventBaseline(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	in := fixture.x.Data[:256]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InferOne(in, RunConfig{}, InferOpts{Engine: EngineEvent})
	}
}

func BenchmarkEngineEventEF(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	in := fixture.x.Data[:256]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InferOne(in, RunConfig{EarlyFire: true}, InferOpts{Engine: EngineEvent})
	}
}

func BenchmarkEngineClockedEF(b *testing.B) {
	loadFixture(b)
	m := fixture.model()
	in := fixture.x.Data[:256]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.InferOne(in, RunConfig{EarlyFire: true}, InferOpts{})
	}
}
