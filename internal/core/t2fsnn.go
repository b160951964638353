// Package core implements the paper's primary contribution: the T2FSNN
// model — a deep spiking network with time-to-first-spike coding driven
// by kernel-based dynamic thresholds (encoding, Eq. 6/7) and dendrites
// (decoding, Eq. 8) — together with the layer-pipelined execution of
// Fig. 3, the early-firing overlap of §III-C, and the spike/latency
// accounting reported in Tables I–II and Figs. 5–6.
package core

import (
	"fmt"
	"sync"

	"repro/internal/fault"
	"repro/internal/kernel"
	"repro/internal/snn"
)

// Model is a converted spiking network equipped with one kernel per
// "fire boundary": K[0] encodes the input image into spikes, and K[i]
// (i ≥ 1) is shared between the fire phase of stage i−1 and the
// integration phase of stage i (the paper ties the integration kernel of
// layer l to the fire kernel of layer l−1).
type Model struct {
	Net *snn.Net
	K   []kernel.Kernel
	T   int // time window per layer, in steps

	// plans cache per-stage scatter rows (snn.ScatterPlan) so inference
	// stops re-deriving per-spike addresses; built lazily because models
	// are also constructed by composite literal. Kernels only shape
	// thresholds and decode scales, never the rows, so ApplyGO needs no
	// invalidation; stage weights are frozen after construction (see
	// snn.ScatterPlan).
	planOnce sync.Once
	plans    []*snn.ScatterPlan

	// outGain/outLoss cache, per output-stage RowKey, the largest
	// positive (outGain) and largest-magnitude negative (outLoss, stored
	// positive) single-synapse weight of the row. One arrival with unit
	// kernel scale can raise any single output potential by at most
	// outGain[key]/div and lower it by at most outLoss[key]/div — the
	// per-event bound behind the early-exit undominated-winner rule.
	boundsOnce       sync.Once
	outGain, outLoss []float64

	// qstages cache the fixed-point engine's per-stage int8 SoA scatter
	// plans plus the weight-grid constants (internal/core/quant.go).
	// Like plans, they depend only on the frozen stage weights — kernel
	// retuning (ApplyGO) shifts the decode/threshold LUTs, which the
	// quant engine requantizes per call — so no invalidation is needed.
	quantOnce sync.Once
	qstages   []quantStage
}

// stagePlan returns the cached scatter plan of stage si.
func (m *Model) stagePlan(si int) *snn.ScatterPlan {
	m.planOnce.Do(func() {
		m.plans = make([]*snn.ScatterPlan, len(m.Net.Stages))
		for i := range m.Net.Stages {
			m.plans[i] = snn.NewScatterPlan(&m.Net.Stages[i])
		}
	})
	return m.plans[si]
}

// scatterPlanned replays a cached scatter row into pot: bit-identical to
// st.Scatter(idx, scale, pot) (same division, same visit order) with the
// address arithmetic paid once per row per model lifetime.
func scatterPlanned(plan *snn.ScatterPlan, st *snn.Stage, idx int, scale float64, pot []float64) {
	key, div := st.RowKey(idx)
	s := scale / div
	for _, c := range plan.Row(key) {
		pot[c.J] += s * c.W
	}
}

// NewModel equips a converted network with uniform initial kernels
// (τ, t_d) over a T-step window, the "empirically set initial stage" of
// the paper's §IV.
func NewModel(net *snn.Net, t int, tau, td float64) (*Model, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	m := &Model{Net: net, T: t}
	for range net.Stages {
		k, err := kernel.New(tau, td, t)
		if err != nil {
			return nil, err
		}
		m.K = append(m.K, k)
	}
	return m, nil
}

// Validate checks model consistency.
func (m *Model) Validate() error {
	if len(m.K) != len(m.Net.Stages) {
		return fmt.Errorf("core: %d kernels for %d stages", len(m.K), len(m.Net.Stages))
	}
	for i, k := range m.K {
		if err := k.Validate(); err != nil {
			return fmt.Errorf("core: kernel %d: %w", i, err)
		}
		if k.T != m.T {
			return fmt.Errorf("core: kernel %d window %d != model window %d", i, k.T, m.T)
		}
	}
	return m.Net.Validate()
}

// ApplyGO runs the paper's gradient-based optimization (§III-B) on every
// kernel: K[0] is fit to the input pixel distribution and K[i] to the
// normalized ground-truth activations z̄ of stage i−1 recorded at
// conversion time. It returns the per-kernel optimization traces
// (consumed by the Fig. 4 experiment).
func (m *Model) ApplyGO(inputSamples []float64, activations [][]float64, cfg kernel.OptimizeConfig) ([]kernel.OptimizeResult, error) {
	if len(activations) < len(m.K)-1 {
		return nil, fmt.Errorf("core: need activations for %d stages, have %d", len(m.K)-1, len(activations))
	}
	results := make([]kernel.OptimizeResult, len(m.K))
	for i := range m.K {
		var zbar []float64
		if i == 0 {
			zbar = inputSamples
		} else {
			zbar = activations[i-1]
		}
		res, err := kernel.Optimize(m.K[i], zbar, cfg)
		if err != nil {
			return nil, fmt.Errorf("core: optimizing kernel %d: %w", i, err)
		}
		m.K[i] = res.Kernel
		results[i] = res
	}
	return results, nil
}

// RunConfig selects the pipeline variant for one inference.
type RunConfig struct {
	// EarlyFire enables the §III-C overlap: each layer's fire phase
	// starts EFStart steps into its integration window instead of after
	// it completes.
	EarlyFire bool
	// EFStart is the early-firing start offset; 0 means T/2, the
	// paper's experimentally chosen value.
	EFStart int
	// CollectSpikeTimes retains per-stage spike time offsets for the
	// Fig. 5 histograms (costs memory; off by default).
	CollectSpikeTimes bool
	// CollectTimeline retains the output-potential argmax after every
	// integration step for the Fig. 6 inference curves.
	CollectTimeline bool
	// CollectEvents retains (neuron, global time) spike pairs per fire
	// boundary for waveform export (internal/trace).
	CollectEvents bool
	// EarlyExit lets the event engine (InferOpts.Engine == EngineEvent)
	// stop integrating the output window the moment the leading class is
	// provably undominated — no sequence of remaining arrivals can
	// change the argmax (see runOutputStageEvent). The prediction is
	// guaranteed to match the full run's argmax; Result.Potentials are
	// partial and Result.Latency reports the (earlier) decision step.
	// Ignored by the clocked engine, and disabled when CollectTimeline
	// is set (the timeline needs the full window).
	EarlyExit bool
	// Faults is this sample's fault-injection stream (internal/fault).
	// Nil injects nothing and adds no work to the inference path.
	Faults *fault.Stream
}

// advance returns the pipeline advance per layer: T for the baseline
// (Fig. 3-a) and EFStart for early firing (Fig. 3-b).
func (c RunConfig) advance(t int) int {
	if !c.EarlyFire {
		return t
	}
	if c.EFStart <= 0 {
		return t / 2
	}
	if c.EFStart > t {
		return t
	}
	return c.EFStart
}

// TimedPred is one point of the output-decision timeline.
type TimedPred struct {
	Step int // global time step at which this prediction became current
	Pred int
}

// Result summarizes one inference.
type Result struct {
	Pred    int
	Latency int // global steps until the final decision
	// Spikes counts every spike: index 0 is the input encoding, index
	// i ≥ 1 is the fire phase of stage i−1. The output stage never
	// fires (its potentials are read directly).
	Spikes []int
	// TotalSpikes is the sum of Spikes.
	TotalSpikes int
	// SpikeTimes[i] holds the global spike times of fire boundary i
	// (same indexing as Spikes) when CollectSpikeTimes is set.
	SpikeTimes [][]int
	// Timeline is the output argmax trajectory when CollectTimeline is
	// set; predictions before the first entry are undefined (chance).
	Timeline []TimedPred
	// Events holds per-boundary (neuron, global time) spikes when
	// CollectEvents is set; same indexing as Spikes.
	Events [][]SpikeEvent
	// Potentials are the final output-stage membrane potentials. Under
	// an early exit they are partial: correct up to the decision step,
	// with the remaining arrivals never integrated.
	Potentials []float64
	// EarlyExit reports that the event engine stopped before the end of
	// the output window because the winner was provably undominated
	// (RunConfig.EarlyExit). Pred still matches the full run's argmax.
	EarlyExit bool
	// StepsSaved counts output-window steps skipped by the early exit.
	StepsSaved int
	// EventsSaved counts output-stage arrival spikes that were never
	// integrated because of the early exit.
	EventsSaved int
}

// PredAt returns the model's decision if it were read out at the given
// global step: the latest timeline entry at or before the step, or -1
// when no information has reached the output yet.
func (r *Result) PredAt(step int) int {
	pred := -1
	for _, tp := range r.Timeline {
		if tp.Step > step {
			break
		}
		pred = tp.Pred
	}
	return pred
}

// inferClockedBody runs the clocked pipeline on a prepared scratch
// without rewinding its arenas, so multi-sample drivers (and the event
// engine's threshold-noise fallback) can run several samples against
// one scratch with every Result staying valid.
func (m *Model) inferClockedBody(sc *InferScratch, input []float64, cfg RunConfig) Result {
	res, times, next, adv := m.encode(sc, input, cfg)
	for si := range m.Net.Stages {
		st := &m.Net.Stages[si]
		inK := m.K[si] // integration kernel = previous fire kernel
		windowStart := si * adv

		if st.Output {
			m.runOutputStage(sc, st, si, inK, times, windowStart, adv, cfg, &res)
			return res
		}

		outK := m.K[si+1]
		out := next[:st.OutLen]
		next = times[:cap(times)] // the consumed buffer becomes the next stage's output
		m.runHiddenStage(sc, st, inK, outK, times, out, adv, &res, si, cfg)
		times = out
	}
	return res // unreachable: Validate guarantees an output stage
}

// encode is the prologue every engine body shares: it checks the input
// length, sets up the Result (Spikes from the scratch arena, Latency
// from the pipeline advance), encodes the input image with K[0] into
// spike offsets within the window (-1 = none), applies boundary-0
// faults, and collects boundary 0's spike times and events. It returns
// the result, the encoded offsets, the free buffer stage 0 writes its
// spikes into, and the pipeline advance per layer.
func (m *Model) encode(sc *InferScratch, input []float64, cfg RunConfig) (res Result, times, next []int, adv int) {
	if len(input) != m.Net.InLen {
		panic(fmt.Sprintf("core: input length %d, want %d", len(input), m.Net.InLen))
	}
	adv = cfg.advance(m.T)
	nStages := len(m.Net.Stages)
	res = Result{
		Spikes:  sc.ints.take(nStages), // boundary 0..nStages-1 (output stage does not fire)
		Latency: (nStages-1)*adv + m.T,
	}
	if cfg.CollectSpikeTimes {
		res.SpikeTimes = make([][]int, nStages)
	}
	if cfg.CollectEvents {
		res.Events = make([][]SpikeEvent, nStages)
	}

	// All pixel information is available at step 0, so encoding is
	// analytic in every pipeline and engine.
	times = sc.timesA[:m.Net.InLen]
	fired := 0
	for i, u := range input {
		if t, ok := m.K[0].Encode(u); ok {
			times[i] = t
			fired++
		} else {
			times[i] = -1
		}
	}
	if cfg.Faults != nil {
		// Boundary 0 faults model a defective sensor/encoder front-end:
		// stuck pixels, lost or jittered encoding spikes.
		fired = cfg.Faults.ApplyTTFS(0, times, m.T)
	}
	res.Spikes[0] = fired
	if cfg.CollectSpikeTimes {
		res.SpikeTimes[0] = collectGlobal(times, 0)
	}
	if cfg.CollectEvents {
		res.Events[0] = collectEvents(times, 0)
	}
	return res, times, sc.timesB, adv
}

// runHiddenStage integrates the previous layer's spikes into stage st
// and fires its neurons against the dynamic threshold, writing the new
// spike-time offsets into outTimes (len st.OutLen). The fire window of
// this stage opens `adv` steps after its input's fire window opened.
func (m *Model) runHiddenStage(sc *InferScratch, st *snn.Stage, inK, outK kernel.Kernel, inTimes, outTimes []int, adv int, res *Result, si int, cfg RunConfig) {
	pot := sc.pot[:st.OutLen]
	for i := range pot {
		pot[i] = 0
	}
	st.AddBias(pot)
	plan := m.stagePlan(si)

	// Bucket input spikes by arrival offset within the input window and
	// tabulate the integration kernel once (the LUT replacement of §V).
	buckets := sc.bucketizeInto(inTimes, m.T)
	dec := sc.decode(inK, m.T)

	// Phase 1 — guaranteed integration: arrivals before the fire phase
	// opens (input offsets < adv).
	for off := 0; off < adv && off < m.T; off++ {
		for _, idx := range buckets[off] {
			scatterPlanned(plan, st, idx, dec[off], pot)
		}
	}

	for i := range outTimes {
		outTimes[i] = -1
	}
	firedCount := 0

	// Phase 2 — fire phase: local steps f = 0..T-1 at input offsets
	// adv+f. Arrivals land first, then unfired neurons are tested
	// against θ(f) = θ₀·ε(f). A neuron that has already fired ignores
	// later arrivals (refractory; non-guaranteed integration).
	for f := 0; f < m.T; f++ {
		inOff := adv + f
		if inOff < m.T {
			for _, idx := range buckets[inOff] {
				scatterPlanned(plan, st, idx, dec[inOff], pot)
			}
		}
		theta := outK.Threshold(float64(f))
		if cfg.Faults != nil {
			theta = cfg.Faults.Threshold(si+1, f, theta)
		}
		for j, u := range pot {
			if outTimes[j] < 0 && u >= theta {
				outTimes[j] = f
				firedCount++
			}
		}
	}
	if cfg.Faults != nil {
		// The stage's spikes traverse a faulty boundary on the way to the
		// next layer: stuck neurons override, survivors may drop or jitter.
		firedCount = cfg.Faults.ApplyTTFS(si+1, outTimes, m.T)
	}
	res.Spikes[si+1] = firedCount
	res.TotalSpikes = 0
	for _, s := range res.Spikes {
		res.TotalSpikes += s
	}
	if cfg.CollectSpikeTimes {
		res.SpikeTimes[si+1] = collectGlobal(outTimes, (si+1)*adv)
	}
	if cfg.CollectEvents {
		res.Events[si+1] = collectEvents(outTimes, (si+1)*adv)
	}
}

// runOutputStage integrates the last hidden layer's spikes into the
// output potentials, recording the decision timeline. The output stage
// never fires; it is read at the end of its integration window. The
// potential buffer comes from the scratch float arena and is returned as
// res.Potentials.
func (m *Model) runOutputStage(sc *InferScratch, st *snn.Stage, si int, inK kernel.Kernel, inTimes []int, windowStart, adv int, cfg RunConfig, res *Result) {
	pot := sc.floats.take(st.OutLen)
	st.AddBias(pot)
	plan := m.stagePlan(si)
	buckets := sc.bucketizeInto(inTimes, m.T)
	dec := sc.decode(inK, m.T)

	for off := 0; off < m.T; off++ {
		if len(buckets[off]) > 0 {
			for _, idx := range buckets[off] {
				scatterPlanned(plan, st, idx, dec[off], pot)
			}
			if cfg.CollectTimeline {
				res.record(windowStart+off, pot)
			}
		}
	}
	res.Pred = argmax(pot)
	res.Potentials = pot
	if cfg.CollectTimeline {
		res.record(res.Latency, pot)
	}
	res.TotalSpikes = 0
	for _, s := range res.Spikes {
		res.TotalSpikes += s
	}
}

// record appends a timeline entry when the output argmax changed.
func (r *Result) record(step int, pot []float64) {
	r.recordPred(step, argmax(pot))
}

// recordPred appends a timeline entry when the prediction changed — the
// engine-agnostic core of record, shared with the fixed-point engine
// whose potentials live in int32 accumulators.
func (r *Result) recordPred(step, pred int) {
	n := len(r.Timeline)
	if n == 0 || r.Timeline[n-1].Pred != pred {
		r.Timeline = append(r.Timeline, TimedPred{Step: step, Pred: pred})
	}
}

// decodeTable tabulates ε(t) at every window offset, replacing the
// per-spike exponential with a table read (the LUT of the paper's §V).
func decodeTable(k kernel.Kernel, t int) []float64 {
	dec := make([]float64, t)
	for i := range dec {
		dec[i] = k.Decode(i)
	}
	return dec
}

// bucketize groups spike indices by their time offset.
func bucketize(times []int, t int) [][]int {
	buckets := make([][]int, t)
	for idx, off := range times {
		if off >= 0 && off < t {
			buckets[off] = append(buckets[off], idx)
		}
	}
	return buckets
}

// SpikeEvent is one (neuron, global time) spike for waveform export.
type SpikeEvent struct {
	Neuron int
	Time   int
}

// collectEvents converts per-neuron local offsets into spike events.
func collectEvents(times []int, base int) []SpikeEvent {
	out := make([]SpikeEvent, 0, len(times))
	for j, t := range times {
		if t >= 0 {
			out = append(out, SpikeEvent{Neuron: j, Time: base + t})
		}
	}
	return out
}

// collectGlobal converts local spike offsets to global times, skipping
// silent neurons.
func collectGlobal(times []int, base int) []int {
	out := make([]int, 0, len(times))
	for _, t := range times {
		if t >= 0 {
			out = append(out, base+t)
		}
	}
	return out
}

func argmax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best, bi := v[0], 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}
