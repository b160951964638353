package serve

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
)

// QuantEngine serves a T2FSNN core.Model on the fixed-point int8
// engine, implementing Engine and SingleEngine. It is the
// throughput-per-core path for single-sample traffic: weights live in
// int8 SoA scatter plans (built once per model, shared by every
// caller) and integration runs on int32 accumulators with one rescale
// per stage boundary, so each inference touches a quarter of the
// clocked engine's weight bytes and collapses arrival-free threshold
// sweeps into single passes.
//
// The prediction contract matches the clocked engine's up to the int8
// weight grid: argmax agreement on the fixture is pinned at ≥99% by
// TestQuantEngineFixtureParity in core, and stages whose dynamic range
// cannot fit the int32 accumulator fall back to the float64 sweep
// transparently (fault streams are pure, so the re-run is exact).
//
// Like the event engine, InferBatch runs the batch sample-by-sample on
// one pooled scratch.
type QuantEngine struct {
	Model *core.Model
	// Run is the per-sample configuration shared by every request.
	Run core.RunConfig
	// Faults optionally injects deterministic per-sample faults keyed by
	// the request's sample index.
	Faults *fault.Injector

	// scratch pools per-caller inference arenas: the steady-state
	// InferOne allocates only the returned Prediction's Potentials copy.
	scratch sync.Pool
}

// InLen implements Engine.
func (e *QuantEngine) InLen() int { return e.Model.Net.InLen }

// Classes implements Engine.
func (e *QuantEngine) Classes() int {
	return e.Model.Net.Stages[len(e.Model.Net.Stages)-1].OutLen
}

// EngineDesc implements EngineDescriber.
func (e *QuantEngine) EngineDesc() string { return "quant" }

// InferOne implements SingleEngine. Safe for concurrent use: every call
// checks a scratch arena out of the pool for its whole duration, and
// the shared SoA plans are immutable after their once-build.
func (e *QuantEngine) InferOne(input []float64, sample int) Prediction {
	sc, _ := e.scratch.Get().(*core.InferScratch)
	if sc == nil {
		sc = core.NewInferScratch(e.Model)
	}
	cfg := e.Run
	if e.Faults != nil && sample >= 0 {
		cfg.Faults = e.Faults.Sample(sample)
	}
	r := e.Model.InferOne(input, cfg, core.InferOpts{Scratch: sc, Engine: core.EngineQuant})
	p := Prediction{
		Pred:        r.Pred,
		Latency:     r.Latency,
		TotalSpikes: r.TotalSpikes,
		// copied: r.Potentials aliases the pooled scratch
		Potentials: append([]float64(nil), r.Potentials...),
	}
	e.scratch.Put(sc)
	return p
}

// InferFrame implements FrameEngine on the fixed-point engine.
func (e *QuantEngine) InferFrame(input []float64, sample int, timeline bool) FrameResult {
	sc, _ := e.scratch.Get().(*core.InferScratch)
	if sc == nil {
		sc = core.NewInferScratch(e.Model)
	}
	cfg := e.Run
	cfg.CollectTimeline = timeline
	if e.Faults != nil && sample >= 0 {
		cfg.Faults = e.Faults.Sample(sample)
	}
	r := e.Model.InferOne(input, cfg, core.InferOpts{Scratch: sc, Engine: core.EngineQuant})
	fr := coreFrameResult(r)
	e.scratch.Put(sc)
	return fr
}

// InferBatch implements Engine by running the batch sample-by-sample on
// one pooled scratch (results are independent of grouping by the
// single-sample contract).
func (e *QuantEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	sc, _ := e.scratch.Get().(*core.InferScratch)
	if sc == nil {
		sc = core.NewInferScratch(e.Model)
	}
	var fs []*fault.Stream
	if e.Faults != nil {
		fs = make([]*fault.Stream, len(inputs))
		for i, idx := range samples {
			if idx >= 0 {
				fs[i] = e.Faults.Sample(idx)
			}
		}
	}
	preds := corePredictions(e.Model.InferMany(inputs, e.Run, core.InferOpts{
		Scratch: sc, Faults: fs, Engine: core.EngineQuant,
	}))
	e.scratch.Put(sc)
	return preds
}
