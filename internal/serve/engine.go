// Package serve is the inference serving layer: a stdlib-only HTTP
// server that queues single-sample requests and runs them on a T2FSNN
// core.Model — TTFSEngine, EventEngine and QuantEngine, one
// implementation over core.InferOne/InferMany per engine kind — or on
// any coding.Scheme (SchemeEngine). Scheduling is
// work-conserving: an idle worker takes the first queued request at
// once, together with whatever else is already queued (up to MaxBatch),
// so batches form only under load and a lone request never waits for
// company. Batching buys no per-sample amortization; an engine on a
// multi-worker core.Pool spreads each batch's samples across cores.
//
// The scheduler guarantees the served predictions are bit-identical to
// direct core.Evaluate over the same samples (pinned by the golden test
// in golden_test.go): batching changes wall-clock behaviour, never
// results.
package serve

import (
	"sync"

	"repro/internal/coding"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/snn"
)

// Prediction is the serving outcome for one sample.
type Prediction struct {
	// Pred is the predicted class.
	Pred int
	// Latency is the model-time latency in simulation steps (not wall
	// clock; the server reports wall latency separately).
	Latency int
	// TotalSpikes counts every spike the inference generated.
	TotalSpikes int
	// Potentials are the final output potentials (the logits the
	// decision was read from). Partial — valid for the argmax only —
	// when EarlyExit is set.
	Potentials []float64
	// EarlyExit reports that the engine stopped integrating the output
	// window once the winner was provably undominated (event engine with
	// core.RunConfig.EarlyExit). The prediction is identical to the full
	// integration's.
	EarlyExit bool
	// EventsSaved counts the output-window spike arrivals the early exit
	// skipped (0 when EarlyExit is false).
	EventsSaved int
}

// Engine turns a batch of inputs into predictions. Implementations must
// be safe for concurrent InferBatch calls (the server runs a worker
// pool) and must produce per-sample results independent of how samples
// are grouped into batches.
type Engine interface {
	// InLen is the expected flattened input length.
	InLen() int
	// Classes is the number of output classes (0 if unknown).
	Classes() int
	// InferBatch infers every input. samples[i] is the caller-supplied
	// sample index of inputs[i], used to derive deterministic per-sample
	// fault streams; a negative index disables fault injection for that
	// sample.
	InferBatch(inputs [][]float64, samples []int) []Prediction
}

// SingleEngine is the optional single-sample capability: an engine that
// can answer one request without batch formation implements it and the
// server routes latency-mode requests straight to InferOne, bypassing
// the batching queue entirely. Discovery is by type assertion in
// New — batch-only engines need no changes, and callers that never ask
// for latency mode never notice the capability either way.
// Implementations must be safe for concurrent InferOne calls and for
// InferOne running concurrently with InferBatch.
type SingleEngine interface {
	// InferOne infers one sample. The sample index keys deterministic
	// fault injection exactly as in Engine.InferBatch (negative = none).
	InferOne(input []float64, sample int) Prediction
}

// FrameResult is the streaming outcome for one frame: the one-shot
// Prediction plus the temporal observability a stream event carries —
// per-stage spike counts always, the output argmax timeline on request.
type FrameResult struct {
	Prediction
	// StageSpikes counts spikes per stage: index 0 is the input
	// encoding, index i ≥ 1 is stage i-1's fire phase.
	StageSpikes []int
	// Timeline is the output argmax trajectory (nil unless asked for).
	Timeline []core.TimedPred
}

// FrameEngine is the optional streaming capability: an engine that can
// answer one frame with per-stage spike counts (and, on request, the
// argmax timeline) implements it and /v1/stream sessions run their
// frames on it directly — same discovery-by-type-assertion contract as
// SingleEngine. The prediction must be identical to InferOne's /
// InferBatch's for the same input (collecting a timeline must not
// change the decision). Implementations must be safe for concurrent
// use.
type FrameEngine interface {
	// InferFrame infers one frame. sample keys deterministic fault
	// injection (negative = none); timeline asks for the argmax
	// trajectory. Returned slices must not alias engine scratch.
	InferFrame(input []float64, sample int, timeline bool) FrameResult
}

// EngineDescriber is the optional self-description capability: engines
// that implement it get their kernel name exported as "engine" on
// /metrics, so operators can tell from a snapshot which inference path
// a server is running — clocked, event, quant, or a coding scheme.
// Discovery is by type assertion in New, like SingleEngine.
type EngineDescriber interface {
	// EngineDesc returns a short stable identifier, e.g. "quant".
	EngineDesc() string
}

// ChunkReporter is implemented by engines whose batch execution runs
// data-parallel on a core.Pool; ParallelChunks returns the cumulative
// number of work chunks dispatched, exported as parallel_chunks on
// /metrics.
type ChunkReporter interface {
	ParallelChunks() uint64
}

// TTFSEngine serves a T2FSNN core.Model on the clocked engine through
// core.InferMany: each batch is a per-sample loop, spread one sample per
// core when Pool has several workers. For one-shot traffic it is
// batch-only (no SingleEngine); stream frames, which arrive one at a
// time, run single-sample on a pooled scratch.
type TTFSEngine struct {
	Model *core.Model
	Run   core.RunConfig
	// Faults optionally injects deterministic per-sample faults keyed by
	// the request's sample index.
	Faults *fault.Injector
	// Pool shards each batch's samples across its workers
	// (core.InferOpts.Pool), one scratch arena per pool worker; nil (or a
	// single-worker pool) runs the batch on the calling goroutine. Give
	// each engine its own pool.
	Pool *core.Pool

	// poolMu serializes parallel batches so result extraction (which
	// reads pool-owned memory) finishes before the next call overwrites
	// it — the coordination core.Pool requires of concurrent
	// InferMany callers.
	poolMu  sync.Mutex
	scratch sync.Pool
}

func (e *TTFSEngine) impl() modelEngine {
	return modelEngine{e.Model, e.Run, e.Faults, &e.scratch, core.EngineClocked}
}

// InLen implements Engine.
func (e *TTFSEngine) InLen() int { return e.Model.Net.InLen }

// Classes implements Engine.
func (e *TTFSEngine) Classes() int { return classes(e.Model) }

// EngineDesc implements EngineDescriber.
func (e *TTFSEngine) EngineDesc() string { return "clocked" }

// InferBatch implements Engine.
func (e *TTFSEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	if e.Pool.Workers() > 1 {
		e.poolMu.Lock()
		defer e.poolMu.Unlock()
		return e.impl().inferBatch(inputs, samples, e.Pool)
	}
	return e.impl().inferBatch(inputs, samples, nil)
}

// ParallelChunks implements ChunkReporter (0 without a pool).
func (e *TTFSEngine) ParallelChunks() uint64 { return e.Pool.Chunks() }

// InferFrame implements FrameEngine.
func (e *TTFSEngine) InferFrame(input []float64, sample int, timeline bool) FrameResult {
	return e.impl().inferFrame(input, sample, timeline)
}

// EventEngine serves a T2FSNN core.Model on core.EngineEvent: the
// clocked pipeline plus an early-exit output stage. Set Run.EarlyExit
// and each sample stops integrating the output window at the
// undominated winner, with the prediction guaranteed identical to the
// clocked engine's (core's early-exit contract), injected faults
// included. Collecting a frame timeline disables the early exit but not
// the guarantee, so streamed decisions match one-shot ones bit for bit.
type EventEngine modelFields

func (e *EventEngine) impl() modelEngine {
	return modelEngine{e.Model, e.Run, e.Faults, &e.scratch, core.EngineEvent}
}

// InLen implements Engine.
func (e *EventEngine) InLen() int { return e.Model.Net.InLen }

// Classes implements Engine.
func (e *EventEngine) Classes() int { return classes(e.Model) }

// EngineDesc implements EngineDescriber.
func (e *EventEngine) EngineDesc() string { return "event" }

// InferBatch implements Engine.
func (e *EventEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	return e.impl().inferBatch(inputs, samples, nil)
}

// InferOne implements SingleEngine.
func (e *EventEngine) InferOne(input []float64, sample int) Prediction {
	return inferOne(e.impl(), input, sample, prediction)
}

// InferFrame implements FrameEngine.
func (e *EventEngine) InferFrame(input []float64, sample int, timeline bool) FrameResult {
	return e.impl().inferFrame(input, sample, timeline)
}

// QuantEngine serves a T2FSNN core.Model on the fixed-point int8
// engine, the throughput-per-core path for single-sample traffic:
// weights live in int8 SoA scatter plans (built once per model, shared
// by every caller) and integration runs on int32 accumulators. Argmax
// agreement with the clocked engine is pinned at ≥99% on the fixture by
// TestQuantEngineFixtureParity in core; stages whose dynamic range
// cannot fit the int32 accumulator fall back to the float64 sweep.
type QuantEngine modelFields

func (e *QuantEngine) impl() modelEngine {
	return modelEngine{e.Model, e.Run, e.Faults, &e.scratch, core.EngineQuant}
}

// InLen implements Engine.
func (e *QuantEngine) InLen() int { return e.Model.Net.InLen }

// Classes implements Engine.
func (e *QuantEngine) Classes() int { return classes(e.Model) }

// EngineDesc implements EngineDescriber.
func (e *QuantEngine) EngineDesc() string { return "quant" }

// InferBatch implements Engine.
func (e *QuantEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	return e.impl().inferBatch(inputs, samples, nil)
}

// InferOne implements SingleEngine.
func (e *QuantEngine) InferOne(input []float64, sample int) Prediction {
	return inferOne(e.impl(), input, sample, prediction)
}

// InferFrame implements FrameEngine.
func (e *QuantEngine) InferFrame(input []float64, sample int, timeline bool) FrameResult {
	return e.impl().inferFrame(input, sample, timeline)
}

// modelFields configures EventEngine and QuantEngine.
type modelFields struct {
	Model *core.Model
	// Run is the per-sample configuration shared by every request.
	Run core.RunConfig
	// Faults optionally injects deterministic per-sample faults keyed by
	// the request's sample index.
	Faults *fault.Injector

	scratch sync.Pool
}

// modelEngine is the serving implementation behind TTFSEngine,
// EventEngine and QuantEngine: one model on one engine kind. Every call
// checks a scratch arena out of the engine's pool for its whole
// duration (so the engines are safe for concurrent use and the steady
// state allocates only the returned copies), derives per-sample fault
// streams from the request's sample index (negative = none), and copies
// results out of the arena before returning it.
type modelEngine struct {
	model   *core.Model
	run     core.RunConfig
	faults  *fault.Injector
	scratch *sync.Pool
	kind    core.EngineKind
}

func (e modelEngine) checkout() *core.InferScratch {
	if sc, ok := e.scratch.Get().(*core.InferScratch); ok {
		return sc
	}
	return core.NewInferScratch(e.model)
}

// inferBatch runs the batch on a pool when one is given (the caller
// serializes pool calls), else sample-by-sample on one pooled scratch.
func (e modelEngine) inferBatch(inputs [][]float64, samples []int, pool *core.Pool) []Prediction {
	opts := core.InferOpts{Pool: pool, Engine: e.kind}
	if e.faults != nil {
		opts.Faults = make([]*fault.Stream, len(inputs))
		for i, idx := range samples {
			if idx >= 0 {
				opts.Faults[i] = e.faults.Sample(idx)
			}
		}
	}
	if pool != nil {
		return predictions(e.model.InferMany(inputs, e.run, opts))
	}
	opts.Scratch = e.checkout()
	preds := predictions(e.model.InferMany(inputs, e.run, opts))
	e.scratch.Put(opts.Scratch)
	return preds
}

func (e modelEngine) inferFrame(input []float64, sample int, timeline bool) FrameResult {
	e.run.CollectTimeline = timeline
	return inferOne(e, input, sample, frameResult)
}

// inferOne runs one sample on a pooled scratch and returns copyOut's
// copy of the result, taken before the scratch goes back to the pool.
func inferOne[T any](e modelEngine, input []float64, sample int, copyOut func(core.Result) T) T {
	sc := e.checkout()
	cfg := e.run
	if e.faults != nil && sample >= 0 {
		cfg.Faults = e.faults.Sample(sample)
	}
	out := copyOut(e.model.InferOne(input, cfg, core.InferOpts{Scratch: sc, Engine: e.kind}))
	e.scratch.Put(sc)
	return out
}

func classes(m *core.Model) int { return m.Net.Stages[len(m.Net.Stages)-1].OutLen }

// prediction copies one core result out of the arena it aliases.
func prediction(r core.Result) Prediction {
	return Prediction{
		Pred:        r.Pred,
		Latency:     r.Latency,
		TotalSpikes: r.TotalSpikes,
		Potentials:  append([]float64(nil), r.Potentials...),
		EarlyExit:   r.EarlyExit,
		EventsSaved: r.EventsSaved,
	}
}

func predictions(rs []core.Result) []Prediction {
	preds := make([]Prediction, len(rs))
	for i, r := range rs {
		preds[i] = prediction(r)
	}
	return preds
}

func frameResult(r core.Result) FrameResult {
	return FrameResult{
		Prediction:  prediction(r),
		StageSpikes: append([]int(nil), r.Spikes...),
		Timeline:    append([]core.TimedPred(nil), r.Timeline...),
	}
}

// SchemeEngine serves any coding.Scheme (rate, phase, burst, or the
// TTFS adapter) over a converted network. Batches run sample-by-sample,
// spread across Pool's workers when it has several.
type SchemeEngine struct {
	Net    *snn.Net
	Scheme coding.Scheme
	// Steps is the simulation horizon passed to every Run.
	Steps  int
	Faults *fault.Injector
	// Pool fans the batch's samples across pool workers, one
	// coding.Scratch per worker; nil runs them on the calling goroutine.
	// Give each engine its own pool.
	Pool *core.Pool

	// mu guards the lazy per-pool-worker scratch table.
	mu        sync.Mutex
	scratches []*coding.Scratch

	// scratch pools per-caller simulation buffers for sequential batches
	// and stream frames.
	scratch sync.Pool
}

// InLen implements Engine.
func (e *SchemeEngine) InLen() int { return e.Net.InLen }

// Classes implements Engine.
func (e *SchemeEngine) Classes() int {
	return e.Net.Stages[len(e.Net.Stages)-1].OutLen
}

// EngineDesc implements EngineDescriber.
func (e *SchemeEngine) EngineDesc() string { return e.Scheme.Name() }

// InferBatch implements Engine.
func (e *SchemeEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	preds := make([]Prediction, len(inputs))
	runOne := func(i int, sc *coding.Scratch) {
		opts := coding.RunOpts{Steps: e.Steps, Scratch: sc}
		if e.Faults != nil && samples[i] >= 0 {
			opts.Faults = e.Faults.Sample(samples[i])
		}
		r := e.Scheme.Run(e.Net, inputs[i], opts)
		preds[i] = Prediction{
			Pred:        r.Pred,
			Latency:     r.Steps,
			TotalSpikes: r.TotalSpikes,
			// copied: r.Potentials aliases the pooled scratch
			Potentials: append([]float64(nil), r.Potentials...),
		}
	}
	if w := e.Pool.Workers(); w > 1 && len(inputs) > 1 {
		e.mu.Lock()
		if e.scratches == nil {
			e.scratches = make([]*coding.Scratch, w)
		}
		e.mu.Unlock()
		// Per-sample chunks: scheme runs dominate, so stealing at the
		// finest grain balances best. Scratch access is safe: the pool
		// serializes calls and hands worker index w to one goroutine at a
		// time, and preds extraction happens inside fn.
		e.Pool.Each(len(inputs), 1, func(lo, hi, worker int) {
			sc := e.scratches[worker]
			if sc == nil {
				sc = coding.NewScratch()
				e.scratches[worker] = sc
			}
			for i := lo; i < hi; i++ {
				runOne(i, sc)
			}
		})
		return preds
	}
	sc, _ := e.scratch.Get().(*coding.Scratch)
	if sc == nil {
		sc = coding.NewScratch()
	}
	for i := range inputs {
		runOne(i, sc)
	}
	e.scratch.Put(sc)
	return preds
}

// ParallelChunks implements ChunkReporter (0 without a pool).
func (e *SchemeEngine) ParallelChunks() uint64 { return e.Pool.Chunks() }

// InferFrame implements FrameEngine by running the scheme once with
// per-stage counting (schemes always report SpikesPerStage) and the
// timeline collected on request.
func (e *SchemeEngine) InferFrame(input []float64, sample int, timeline bool) FrameResult {
	sc, _ := e.scratch.Get().(*coding.Scratch)
	if sc == nil {
		sc = coding.NewScratch()
	}
	opts := coding.RunOpts{Steps: e.Steps, Scratch: sc, CollectTimeline: timeline}
	if e.Faults != nil && sample >= 0 {
		opts.Faults = e.Faults.Sample(sample)
	}
	r := e.Scheme.Run(e.Net, input, opts)
	fr := FrameResult{
		Prediction: Prediction{
			Pred:        r.Pred,
			Latency:     r.Steps,
			TotalSpikes: r.TotalSpikes,
			// copied: r.Potentials aliases the pooled scratch
			Potentials: append([]float64(nil), r.Potentials...),
		},
		StageSpikes: append([]int(nil), r.SpikesPerStage...),
	}
	for _, tp := range r.Timeline {
		fr.Timeline = append(fr.Timeline, core.TimedPred{Step: tp.Step, Pred: tp.Pred})
	}
	e.scratch.Put(sc)
	return fr
}
