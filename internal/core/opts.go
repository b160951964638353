package core

import (
	"fmt"

	"repro/internal/fault"
)

// EngineKind selects the execution engine behind InferOne/InferMany.
type EngineKind int

const (
	// EngineClocked sweeps every neuron against the threshold at every
	// step — the reference engine the others are pinned against.
	EngineClocked EngineKind = iota
	// EngineEvent processes analytically predicted fire events instead
	// of sweeping steps. Results are bit-identical to EngineClocked
	// (pinned by property tests); with RunConfig.EarlyExit it
	// additionally stops the output window early once the winner is
	// provably undominated, which only guarantees the argmax. It is the
	// latency-optimal single-sample path.
	EngineEvent
	// EngineQuant runs the clocked pipeline on int8 structure-of-arrays
	// scatter plans with int32 accumulators (internal/core/quant.go):
	// weights are quantized to each stage's 8-bit dynamic fixed-point
	// format, zero-quantized synapses are dropped from the plan, and
	// potentials stay in integer units until the output stage's single
	// rescale. Predictions agree with EngineClocked up to quantization
	// (the agreement rate is pinned by TestQuantEngineFixtureParity);
	// a model whose integer headroom cannot fit int32 accumulators
	// falls back to EngineClocked. RunConfig.EarlyExit is ignored.
	EngineQuant
)

// InferOpts carries the execution options shared by every inference
// entry point: the scratch arena, per-sample fault streams, the worker
// pool, and the engine choice. The zero value means "fresh scratch, no
// faults, sequential, clocked".
type InferOpts struct {
	// Scratch is the reusable working set; results alias it (see
	// InferScratch). Nil allocates a fresh single-use scratch.
	Scratch *InferScratch
	// Faults holds one per-sample fault stream per input for InferMany
	// (nil entries inject nothing); nil injects nothing. InferOne takes
	// its single stream in RunConfig.Faults instead and panics when
	// this field is set.
	Faults []*fault.Stream
	// Pool runs InferMany's samples data-parallel, one sample per
	// claimed chunk on per-worker scratches (bit-identical at any worker
	// count); Scratch is then unused. Nil or single-worker pools run
	// sequentially. Ignored by InferOne.
	Pool *Pool
	// Engine selects the execution engine (default EngineClocked).
	Engine EngineKind
}

// engineBody is one engine's per-sample pipeline on a prepared scratch:
// it neither sizes nor rewinds the scratch, so several samples can run
// against one scratch with every Result staying valid.
type engineBody func(m *Model, sc *InferScratch, input []float64, cfg RunConfig) Result

// body returns the engine's per-sample pipeline.
func (k EngineKind) body() engineBody {
	switch k {
	case EngineEvent:
		return (*Model).inferEventBody
	case EngineQuant:
		return (*Model).inferQuantBody
	}
	return (*Model).inferClockedBody
}

// InferOne runs one input (flattened [C,H,W], values in [0,1]) through
// the T2FSNN pipeline on the selected engine — the single-sample entry
// point.
//
// Layer k's fire window starts at global step k·advance and lasts T
// steps. In the baseline pipeline (advance = T) every input spike has
// arrived before a layer starts firing — guaranteed integration. With
// early firing (advance = EFStart < T) the fire phase overlaps the
// integration phase; inputs arriving after a neuron's own spike no
// longer influence it (non-guaranteed integration, §III-C).
//
// With opts.Scratch set, every working buffer and the Result's
// Spikes/Potentials come from the scratch, so the steady-state call
// allocates nothing (see InferScratch for the aliasing contract); a nil
// scratch falls back to a fresh single-use arena with bit-identical
// results. The sample's fault stream travels in cfg.Faults; opts.Faults
// (the per-sample slice of the batch path) must be nil.
func (m *Model) InferOne(input []float64, cfg RunConfig, opts InferOpts) Result {
	if opts.Faults != nil {
		panic("core: InferOne takes the sample's fault stream in cfg.Faults, not opts.Faults")
	}
	return opts.Engine.body()(m, m.prepare(opts.Scratch), input, cfg)
}

// InferMany runs a batch of inputs and returns one Result per input,
// each bit-identical to InferOne(inputs[i], cfg with Faults=faults[i])
// on the same engine: it is a per-sample loop over the engine's
// pipeline, with no cross-sample state.
//
// Per-sample fault streams travel in opts.Faults (nil, or one entry per
// input); cfg.Faults must be nil. A multi-worker opts.Pool shards the
// samples across its workers. Results alias the scratch (or pool)
// arenas per the usual contract.
func (m *Model) InferMany(inputs [][]float64, cfg RunConfig, opts InferOpts) []Result {
	if cfg.Faults != nil {
		panic("core: InferMany takes per-sample fault streams in opts.Faults, not cfg.Faults")
	}
	if opts.Faults != nil && len(opts.Faults) != len(inputs) {
		panic(fmt.Sprintf("core: %d fault streams for %d inputs", len(opts.Faults), len(inputs)))
	}
	if opts.Pool != nil {
		return opts.Pool.inferMany(m, opts.Engine.body(), inputs, cfg, opts.Faults)
	}
	return m.inferSeq(opts.Scratch, opts.Engine.body(), inputs, cfg, opts.Faults)
}

// prepare sizes sc for m (a nil sc becomes a fresh scratch) and rewinds
// its result arenas; called once per top-level call on the scratch.
func (m *Model) prepare(sc *InferScratch) *InferScratch {
	if sc == nil {
		return NewInferScratch(m)
	}
	sc.ensure(m)
	sc.reset()
	return sc
}

// inferSeq runs the samples one after another on sc, prepared once so
// every Result stays valid, into the scratch's result slice.
func (m *Model) inferSeq(sc *InferScratch, body engineBody, inputs [][]float64, cfg RunConfig, faults []*fault.Stream) []Result {
	sc = m.prepare(sc)
	res := sc.takeResults(len(inputs))
	for i := range inputs {
		res[i] = m.inferSample(sc, body, inputs, cfg, faults, i)
	}
	return res
}

// inferSample runs sample i of a batch with its own fault stream.
func (m *Model) inferSample(sc *InferScratch, body engineBody, inputs [][]float64, cfg RunConfig, faults []*fault.Stream, i int) Result {
	if faults != nil {
		cfg.Faults = faults[i]
	}
	return body(m, sc, inputs[i], cfg)
}
