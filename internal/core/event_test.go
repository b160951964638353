package core

import (
	"fmt"
	"testing"
)

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
	eachKernel(t, func() {
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
	})
}
