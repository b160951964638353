package serve

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fault"
)

// EventEngine serves a T2FSNN core.Model on the event-driven engine,
// implementing both Engine and SingleEngine. It is the latency-optimal
// path: set Run.EarlyExit and each sample stops integrating the output
// window at the undominated winner, with the prediction guaranteed
// identical to the clocked engine's (core's early-exit contract, pinned
// by VerifyEarlyExit-based property tests) — including under injected
// faults, where threshold noise transparently falls back to the clocked
// sweep inside core.
//
// InferBatch runs the batch sample-by-sample on one pooled scratch
// (core.InferMany with core.EngineEvent).
type EventEngine struct {
	Model *core.Model
	// Run is the per-sample configuration; Run.EarlyExit enables the
	// undominated-winner exit.
	Run core.RunConfig
	// Faults optionally injects deterministic per-sample faults keyed by
	// the request's sample index.
	Faults *fault.Injector

	// scratch pools per-caller inference arenas: the steady-state
	// InferOne allocates only the returned Prediction's Potentials copy.
	scratch sync.Pool
}

// InLen implements Engine.
func (e *EventEngine) InLen() int { return e.Model.Net.InLen }

// Classes implements Engine.
func (e *EventEngine) Classes() int {
	return e.Model.Net.Stages[len(e.Model.Net.Stages)-1].OutLen
}

// EngineDesc implements EngineDescriber.
func (e *EventEngine) EngineDesc() string { return "event" }

// InferOne implements SingleEngine. Safe for concurrent use: every call
// checks a scratch arena out of the pool for its whole duration.
func (e *EventEngine) InferOne(input []float64, sample int) Prediction {
	sc, _ := e.scratch.Get().(*core.InferScratch)
	if sc == nil {
		sc = core.NewInferScratch(e.Model)
	}
	cfg := e.Run
	if e.Faults != nil && sample >= 0 {
		cfg.Faults = e.Faults.Sample(sample)
	}
	r := e.Model.InferOne(input, cfg, core.InferOpts{Scratch: sc, Engine: core.EngineEvent})
	p := Prediction{
		Pred:        r.Pred,
		Latency:     r.Latency,
		TotalSpikes: r.TotalSpikes,
		// copied: r.Potentials aliases the pooled scratch
		Potentials:  append([]float64(nil), r.Potentials...),
		EarlyExit:   r.EarlyExit,
		EventsSaved: r.EventsSaved,
	}
	e.scratch.Put(sc)
	return p
}

// InferFrame implements FrameEngine. Collecting a timeline disables the
// early exit inside core (the trajectory needs the full output window)
// but the prediction is identical either way — core's early-exit
// contract — so streamed decisions match one-shot ones bit for bit.
func (e *EventEngine) InferFrame(input []float64, sample int, timeline bool) FrameResult {
	sc, _ := e.scratch.Get().(*core.InferScratch)
	if sc == nil {
		sc = core.NewInferScratch(e.Model)
	}
	cfg := e.Run
	cfg.CollectTimeline = timeline
	if e.Faults != nil && sample >= 0 {
		cfg.Faults = e.Faults.Sample(sample)
	}
	r := e.Model.InferOne(input, cfg, core.InferOpts{Scratch: sc, Engine: core.EngineEvent})
	fr := coreFrameResult(r)
	e.scratch.Put(sc)
	return fr
}

// InferBatch implements Engine by running the batch sample-by-sample on
// one pooled scratch (results are independent of grouping by the
// single-sample contract).
func (e *EventEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
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
		Scratch: sc, Faults: fs, Engine: core.EngineEvent,
	}))
	e.scratch.Put(sc)
	return preds
}
