// Package serve is the inference serving layer: a stdlib-only HTTP
// server that runs single-sample requests on a T2FSNN core.Model —
// TTFSEngine, EventEngine and QuantEngine, one implementation over
// core.InferOne per engine kind — or on a baseline coding.Scheme
// (SchemeEngine). Registry.Handler is the one HTTP API: it hosts named
// models, each on its own Server, behind a shared admission layer.
// A request reaches its Server's engine one of three ways — the
// batching queue (Infer), the direct single-sample path (InferDirect)
// or a stream frame (InferFrame); the last two share one synchronous
// admission and accounting body. Scheduling is work-conserving: an idle
// worker takes the first queued request at once, together with whatever
// else is already queued (up to MaxBatch), so batches form only under
// load and a lone request never waits for company. Batching buys no
// per-sample amortization: every engine runs a batch as a per-sample
// loop, and one on a multi-worker core.Pool spreads the samples across
// cores with Pool.Each.
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
// core.InferOne: each batch is a per-sample loop, spread one sample per
// chunk across Pool's workers when it has several. For one-shot traffic
// it is batch-only (no SingleEngine); stream frames, which arrive one at
// a time, run single-sample on a pooled scratch.
type TTFSEngine struct {
	Model *core.Model
	Run   core.RunConfig
	// Faults optionally injects deterministic per-sample faults keyed by
	// the request's sample index.
	Faults *fault.Injector
	// Pool spreads each multi-sample batch across its workers with
	// Pool.Each, on one engine-owned scratch arena per worker; nil (or a
	// single-worker pool) runs the batch on the calling goroutine. Engines
	// may share a pool: its parallel calls are serialized.
	Pool *core.Pool

	scratch scratchSet[*core.InferScratch]
}

func (e *TTFSEngine) impl() modelEngine {
	return modelEngine{e.Model, e.Run, e.Faults, e.Pool, &e.scratch, core.EngineClocked}
}

// InLen implements Engine.
func (e *TTFSEngine) InLen() int { return e.Model.Net.InLen }

// Classes implements Engine.
func (e *TTFSEngine) Classes() int { return classes(e.Model) }

// EngineDesc implements EngineDescriber.
func (e *TTFSEngine) EngineDesc() string { return "clocked" }

// InferBatch implements Engine.
func (e *TTFSEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	return e.impl().inferBatch(inputs, samples)
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
	return modelEngine{e.Model, e.Run, e.Faults, nil, &e.scratch, core.EngineEvent}
}

// InLen implements Engine.
func (e *EventEngine) InLen() int { return e.Model.Net.InLen }

// Classes implements Engine.
func (e *EventEngine) Classes() int { return classes(e.Model) }

// EngineDesc implements EngineDescriber.
func (e *EventEngine) EngineDesc() string { return "event" }

// InferBatch implements Engine.
func (e *EventEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	return e.impl().inferBatch(inputs, samples)
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
	return modelEngine{e.Model, e.Run, e.Faults, nil, &e.scratch, core.EngineQuant}
}

// InLen implements Engine.
func (e *QuantEngine) InLen() int { return e.Model.Net.InLen }

// Classes implements Engine.
func (e *QuantEngine) Classes() int { return classes(e.Model) }

// EngineDesc implements EngineDescriber.
func (e *QuantEngine) EngineDesc() string { return "quant" }

// InferBatch implements Engine.
func (e *QuantEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	return e.impl().inferBatch(inputs, samples)
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

	scratch scratchSet[*core.InferScratch]
}

// modelEngine is the serving implementation behind TTFSEngine,
// EventEngine and QuantEngine: one model on one engine kind. Every
// sample runs core.InferOne on a scratch arena the engine owns for the
// call (so the engines are safe for concurrent use and the steady state
// allocates only the returned copies), with its fault stream derived
// from the request's sample index (negative = none), and its result is
// copied out before the scratch is reused.
type modelEngine struct {
	model   *core.Model
	run     core.RunConfig
	faults  *fault.Injector
	pool    *core.Pool
	scratch *scratchSet[*core.InferScratch]
	kind    core.EngineKind
}

func (e modelEngine) newScratch() *core.InferScratch { return core.NewInferScratch(e.model) }

// config returns the run configuration of one sample.
func (e modelEngine) config(sample int) core.RunConfig {
	cfg := e.run
	if e.faults != nil && sample >= 0 {
		cfg.Faults = e.faults.Sample(sample)
	}
	return cfg
}

func (e modelEngine) inferBatch(inputs [][]float64, samples []int) []Prediction {
	preds := make([]Prediction, len(inputs))
	e.scratch.eachSample(e.pool, len(inputs), e.newScratch, func(i int, sc *core.InferScratch) {
		preds[i] = prediction(e.model.InferOne(inputs[i], e.config(samples[i]), core.InferOpts{Scratch: sc, Engine: e.kind}))
	})
	return preds
}

func (e modelEngine) inferFrame(input []float64, sample int, timeline bool) FrameResult {
	e.run.CollectTimeline = timeline
	return inferOne(e, input, sample, frameResult)
}

// inferOne runs one sample on a spare scratch and returns copyOut's
// copy of the result, taken before the scratch goes back to the set.
func inferOne[T any](e modelEngine, input []float64, sample int, copyOut func(core.Result) T) T {
	sc := e.scratch.get(e.newScratch)
	out := copyOut(e.model.InferOne(input, e.config(sample), core.InferOpts{Scratch: sc, Engine: e.kind}))
	e.scratch.put(sc)
	return out
}

// scratchSet holds one engine's scratch arenas: one per pool worker
// index for pooled batches, all allocated on the first pooled call, and
// a sync.Pool of spares for sequential batches, single samples and
// stream frames.
type scratchSet[S any] struct {
	mu      sync.Mutex // guards the workers table
	workers []S
	spare   sync.Pool
}

// get checks a spare out, building one with newS when none is pooled.
func (s *scratchSet[S]) get(newS func() S) S {
	if sc, ok := s.spare.Get().(S); ok {
		return sc
	}
	return newS()
}

func (s *scratchSet[S]) put(sc S) { s.spare.Put(sc) }

// eachSample runs run(i, sc) for every sample i of an n-sample batch on
// a scratch no other goroutine touches meanwhile; run copies its result
// out before returning. With a multi-worker pool and more than one
// sample, the samples are claimed one per chunk across the pool's
// workers (sample costs vary, so stealing at the finest grain balances
// best), each on its worker's scratch — Pool.Each makes a worker index
// exclusive in exactly that case. Otherwise they run in order on the
// calling goroutine, on one spare.
func (s *scratchSet[S]) eachSample(pool *core.Pool, n int, newS func() S, run func(i int, sc S)) {
	w := pool.Workers()
	if w <= 1 || n <= 1 {
		sc := s.get(newS)
		for i := 0; i < n; i++ {
			run(i, sc)
		}
		s.put(sc)
		return
	}
	s.mu.Lock()
	workers := s.workers
	s.mu.Unlock()
	if len(workers) < w {
		// Built outside the lock. Two racing first calls each build a
		// table; the pool runs their Each calls one at a time, so no
		// table is shared while in use.
		workers = make([]S, w)
		for i := range workers {
			workers[i] = newS()
		}
		s.mu.Lock()
		s.workers = workers
		s.mu.Unlock()
	}
	pool.Each(n, 1, func(lo, hi, worker int) {
		for i := lo; i < hi; i++ {
			run(i, workers[worker])
		}
	})
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

func frameResult(r core.Result) FrameResult {
	return FrameResult{
		Prediction:  prediction(r),
		StageSpikes: append([]int(nil), r.Spikes...),
		Timeline:    append([]core.TimedPred(nil), r.Timeline...),
	}
}

// SchemeEngine serves a baseline coding.Scheme (rate, phase or burst)
// over a converted network; T2FSNN itself serves through TTFSEngine,
// EventEngine or QuantEngine. Batches run sample-by-sample, spread
// across Pool's workers when it has several.
type SchemeEngine struct {
	Net    *snn.Net
	Scheme coding.Scheme
	// Steps is the simulation horizon passed to every Run.
	Steps  int
	Faults *fault.Injector
	// Pool spreads each multi-sample batch across its workers with
	// Pool.Each, on one engine-owned coding.Scratch per worker; nil runs
	// the batch on the calling goroutine. Engines may share a pool.
	Pool *core.Pool

	scratch scratchSet[*coding.Scratch]
}

// InLen implements Engine.
func (e *SchemeEngine) InLen() int { return e.Net.InLen }

// Classes implements Engine.
func (e *SchemeEngine) Classes() int {
	return e.Net.Stages[len(e.Net.Stages)-1].OutLen
}

// EngineDesc implements EngineDescriber.
func (e *SchemeEngine) EngineDesc() string { return e.Scheme.Name() }

// runOpts returns one sample's scheme options on sc.
func (e *SchemeEngine) runOpts(sample int, sc *coding.Scratch) coding.RunOpts {
	opts := coding.RunOpts{Steps: e.Steps, Scratch: sc}
	if e.Faults != nil && sample >= 0 {
		opts.Faults = e.Faults.Sample(sample)
	}
	return opts
}

// InferBatch implements Engine.
func (e *SchemeEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	preds := make([]Prediction, len(inputs))
	e.scratch.eachSample(e.Pool, len(inputs), coding.NewScratch, func(i int, sc *coding.Scratch) {
		preds[i] = schemePrediction(e.Scheme.Run(e.Net, inputs[i], e.runOpts(samples[i], sc)))
	})
	return preds
}

// ParallelChunks implements ChunkReporter (0 without a pool).
func (e *SchemeEngine) ParallelChunks() uint64 { return e.Pool.Chunks() }

// InferFrame implements FrameEngine by running the scheme once with
// per-stage counting (schemes always report SpikesPerStage) and the
// timeline collected on request.
func (e *SchemeEngine) InferFrame(input []float64, sample int, timeline bool) FrameResult {
	sc := e.scratch.get(coding.NewScratch)
	opts := e.runOpts(sample, sc)
	opts.CollectTimeline = timeline
	r := e.Scheme.Run(e.Net, input, opts)
	fr := FrameResult{
		Prediction:  schemePrediction(r),
		StageSpikes: append([]int(nil), r.SpikesPerStage...),
		Timeline:    append([]core.TimedPred(nil), r.Timeline...),
	}
	e.scratch.put(sc)
	return fr
}

// schemePrediction copies one scheme result out of the scratch it
// aliases.
func schemePrediction(r snn.SimResult) Prediction {
	return Prediction{
		Pred:        r.Pred,
		Latency:     r.Steps,
		TotalSpikes: r.TotalSpikes,
		Potentials:  append([]float64(nil), r.Potentials...),
	}
}
