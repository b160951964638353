// Package serve is the inference serving layer: a stdlib-only HTTP
// server that queues single-sample requests and runs them on a T2FSNN
// engine (core.InferMany) or any coding.Scheme. Scheduling is
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
// core when Pool has several workers.
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
	poolMu sync.Mutex

	// scratch pools per-worker inference arenas so steady-state batches
	// allocate only the returned Predictions, never the working set.
	scratch sync.Pool
}

// InLen implements Engine.
func (e *TTFSEngine) InLen() int { return e.Model.Net.InLen }

// Classes implements Engine.
func (e *TTFSEngine) Classes() int {
	return e.Model.Net.Stages[len(e.Model.Net.Stages)-1].OutLen
}

// EngineDesc implements EngineDescriber.
func (e *TTFSEngine) EngineDesc() string { return "clocked" }

// InferBatch implements Engine.
func (e *TTFSEngine) InferBatch(inputs [][]float64, samples []int) []Prediction {
	var fs []*fault.Stream
	if e.Faults != nil {
		fs = make([]*fault.Stream, len(inputs))
		for i, idx := range samples {
			if idx >= 0 {
				fs[i] = e.Faults.Sample(idx)
			}
		}
	}
	if e.Pool.Workers() > 1 {
		e.poolMu.Lock()
		defer e.poolMu.Unlock()
		return corePredictions(e.Model.InferMany(inputs, e.Run, core.InferOpts{Pool: e.Pool, Faults: fs}))
	}
	sc, _ := e.scratch.Get().(*core.InferScratch)
	if sc == nil {
		sc = core.NewInferScratch(e.Model)
	}
	preds := corePredictions(e.Model.InferMany(inputs, e.Run, core.InferOpts{Scratch: sc, Faults: fs}))
	e.scratch.Put(sc)
	return preds
}

// ParallelChunks implements ChunkReporter (0 without a pool).
func (e *TTFSEngine) ParallelChunks() uint64 { return e.Pool.Chunks() }

// InferFrame implements FrameEngine on the clocked engine: a stream
// frame runs single-sample on a pooled scratch (TTFSEngine deliberately
// stays batch-only for one-shot traffic; a session's frames arrive one
// at a time, so there is no batch to form).
func (e *TTFSEngine) InferFrame(input []float64, sample int, timeline bool) FrameResult {
	sc, _ := e.scratch.Get().(*core.InferScratch)
	if sc == nil {
		sc = core.NewInferScratch(e.Model)
	}
	cfg := e.Run
	cfg.CollectTimeline = timeline
	if e.Faults != nil && sample >= 0 {
		cfg.Faults = e.Faults.Sample(sample)
	}
	r := e.Model.InferOne(input, cfg, core.InferOpts{Scratch: sc})
	fr := coreFrameResult(r)
	e.scratch.Put(sc)
	return fr
}

// coreFrameResult converts one core result into a frame result, copying
// every slice out of the scratch arenas it may alias.
func coreFrameResult(r core.Result) FrameResult {
	return FrameResult{
		Prediction: Prediction{
			Pred:        r.Pred,
			Latency:     r.Latency,
			TotalSpikes: r.TotalSpikes,
			Potentials:  append([]float64(nil), r.Potentials...),
			EarlyExit:   r.EarlyExit,
			EventsSaved: r.EventsSaved,
		},
		StageSpikes: append([]int(nil), r.Spikes...),
		Timeline:    append([]core.TimedPred(nil), r.Timeline...),
	}
}

// corePredictions converts batch results into predictions, copying
// Potentials out of the scratch/pool arenas they alias.
func corePredictions(rs []core.Result) []Prediction {
	preds := make([]Prediction, len(rs))
	for i, r := range rs {
		preds[i] = Prediction{
			Pred:        r.Pred,
			Latency:     r.Latency,
			TotalSpikes: r.TotalSpikes,
			Potentials:  append([]float64(nil), r.Potentials...),
			EarlyExit:   r.EarlyExit,
			EventsSaved: r.EventsSaved,
		}
	}
	return preds
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

	// scratch pools per-worker simulation buffers (see TTFSEngine).
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
