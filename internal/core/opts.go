package core

// EngineKind selects the execution engine behind InferOne.
type EngineKind int

const (
	// EngineClocked is the float64 reference pipeline. Its fire sweep
	// walks arrival-free runs of steps, testing each unfired neuron once
	// per run and binary-searching the falling θ table for its fire
	// step — exactly the per-step semantics (pinned against a literal
	// per-step reference by tests); threshold-noise faults run the
	// per-step sweep itself.
	EngineClocked EngineKind = iota
	// EngineEvent is EngineClocked with an early-exit output stage: with
	// RunConfig.EarlyExit it stops integrating the output window once
	// the winner is provably undominated, which guarantees only the
	// argmax (spike times and counts stay the clocked engine's). Without
	// EarlyExit it is EngineClocked. Against the full window the exit
	// saves little: batch-1 on the fixture 247 vs 203 µs with early
	// firing off and 324 vs 334 µs with it on, and on the served
	// geometry 0.97 vs 0.98 ms per sample (2 CPUs, one record:
	// BENCH_2026-10-18_taps.json).
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

// InferOpts carries InferOne's execution options: the scratch arena
// and the engine choice. The zero value means "fresh scratch, clocked".
// A batch is a caller's loop over InferOne — on one scratch, or on one
// scratch per Pool.Each worker to spread the samples across cores.
type InferOpts struct {
	// Scratch is the reusable working set; results alias it (see
	// InferScratch). Nil allocates a fresh single-use scratch.
	Scratch *InferScratch
	// Engine selects the execution engine (default EngineClocked).
	Engine EngineKind
}

// InferOne runs one input (flattened [C,H,W], values in [0,1]) through
// the T2FSNN pipeline on the selected engine — core's inference entry
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
// results. The sample's fault stream travels in cfg.Faults.
func (m *Model) InferOne(input []float64, cfg RunConfig, opts InferOpts) Result {
	sc := m.prepare(opts.Scratch)
	switch opts.Engine {
	case EngineEvent:
		return m.inferEventBody(sc, input, cfg)
	case EngineQuant:
		return m.inferQuantBody(sc, input, cfg)
	}
	return m.inferClockedBody(sc, input, cfg)
}

// prepare sizes sc for m (a nil sc becomes a fresh scratch) and rewinds
// its result arenas; called once per InferOne.
func (m *Model) prepare(sc *InferScratch) *InferScratch {
	if sc == nil {
		return NewInferScratch(m)
	}
	sc.ensure(m)
	sc.reset()
	return sc
}
