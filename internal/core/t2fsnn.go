// Package core implements the paper's primary contribution: the T2FSNN
// model — a deep spiking network with time-to-first-spike coding driven
// by kernel-based dynamic thresholds (encoding, Eq. 6/7) and dendrites
// (decoding, Eq. 8) — together with the layer-pipelined execution of
// Fig. 3, the early-firing overlap of §III-C, and the spike/latency
// accounting reported in Tables I–II and Figs. 5–6.
package core

import (
	"fmt"
	"math"
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

	// scat holds every stage's compact scatter form (stageScatter),
	// and outGain/outLoss, per output-stage row key, the largest positive
	// (outGain) and largest-magnitude negative (outLoss, stored positive)
	// single-synapse weight of the row. One arrival with unit kernel
	// scale can raise any single output potential by at most
	// outGain[key]/div and lower it by at most outLoss[key]/div: the
	// per-event bound behind the early-exit undominated-winner rule. All
	// three are built together on the first inference (scatters).
	scatterOnce      sync.Once
	scat             []stageScatter
	outGain, outLoss []float64

	// qstages cache the fixed-point engine's per-stage int8 SoA scatter
	// plans plus the weight-grid constants (internal/core/quant.go).
	// Like scat, they depend only on the frozen stage weights — kernel
	// retuning (ApplyGO) shifts the decode/threshold LUTs, which the
	// quant engine requantizes per call — so no invalidation is needed.
	quantOnce sync.Once
	qstages   []quantStage
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

// TimedPred is one point of the output-decision timeline, shared with
// the baseline codings via internal/snn (read it with snn.PredAt).
type TimedPred = snn.TimedPred

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

// inferClockedBody runs the clocked pipeline on a prepared scratch
// without rewinding its arenas, so the quant engine's headroom fallback
// can run it on the scratch InferOne already prepared.
func (m *Model) inferClockedBody(sc *InferScratch, input []float64, cfg RunConfig) Result {
	return m.inferFloat(sc, input, cfg, false)
}

// inferFloat is the float pipeline behind both EngineClocked and
// EngineEvent: every hidden stage runs runHiddenStage, and the output
// stage runs the early-exit rule (runOutputStageEvent) when earlyExit
// is set, else integrates its whole window (runOutputStage).
func (m *Model) inferFloat(sc *InferScratch, input []float64, cfg RunConfig, earlyExit bool) Result {
	res, times, next, adv := m.encode(sc, input, cfg)
	for si := range m.Net.Stages {
		st := &m.Net.Stages[si]
		inK := m.K[si] // integration kernel = previous fire kernel

		if st.Output {
			if earlyExit {
				m.runOutputStageEvent(sc, st, si, inK, times, si*adv, &res)
			} else {
				m.runOutputStage(sc, st, si, inK, times, si*adv, cfg, &res)
			}
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
	ss := &m.scatters()[si]
	pot := sc.pot[:st.OutLen]
	clear(pot)
	ss.addBias(pot, st.B.Data)

	// Bucket input spikes by arrival offset within the input window and
	// tabulate the integration kernel and the threshold once (the LUTs
	// of §V).
	buckets := sc.bucketizeInto(inTimes, m.T)
	dec := sc.decode(inK, m.T)
	thr := sc.thresholds(outK, m.T)
	scatter := func(off int) { ss.scatter(buckets[off], dec[off], pot) }
	var noisy func(f int) float64
	if cfg.Faults.HasThresholdNoise() {
		noisy = func(f int) float64 { return cfg.Faults.Threshold(si+1, f, thr[f]) }
	}
	// The sweep numbers neurons as the potentials do ([plane][OutC] for
	// conv). The input times are dead once bucketized, so their buffer
	// takes the sweep's times before they are renumbered channel-first.
	times, renumber := outTimes, ss.plane > 1 && ss.out > 1
	if renumber {
		times = inTimes[:cap(inTimes)][:st.OutLen]
	}
	fired := fireSweep(pot, thr, dec, math.Inf(-1), buckets, times, adv, scatter, noisy)
	if renumber {
		ss.channelFirst(outTimes, times)
	}
	m.commitBoundary(res, si+1, outTimes, fired, adv, cfg)
}

// fireSweep runs one hidden stage's integration and fire phases on the
// accumulators of either engine (float64 potentials, or the quant
// engine's int32 units), writing each neuron's fire step into outTimes
// (-1 = silent) and returning how many fired. scatter(off) integrates
// the arrivals at input offset off and dec[off] is their decode scale
// (zero delivers nothing). Offsets below adv land before the fire phase
// opens (guaranteed integration); offset adv+f lands at fire step f,
// before that step's threshold test. A neuron that has fired ignores
// later arrivals (refractory; non-guaranteed integration, §III-C).
//
// spent is a value no threshold test passes (-Inf for float64,
// MinInt32 for int32): a neuron's potential is set to it when the
// neuron fires, so later sweeps fail its u ≥ θ test. Hidden potentials
// are never read after the sweep, so this changes no spike time. Each
// scan is nextFire: AVX-compared on float64 potentials, which need no
// outTimes guard, while int32 keeps it because arrivals may wrap a
// spent accumulator back above θ. Only candidates that pass the scan
// reach the fire-step search below.
//
// thr[f] is θ(f) = θ₀·ε(f) on the accumulator grid, and it only falls.
// Within a run of steps that no arrival touches the potentials are
// constant, so a neuron tested once against the run's last (lowest)
// threshold fires in the run iff it crosses, and its fire step is a
// binary search of thr: the segment-wise closed form of Eq. 7. With
// early firing off every arrival lands before the fire phase and the
// whole window is one run. noisy, when set, perturbs θ(f) per step
// (threshold-noise faults), which breaks the monotonicity, so every
// unfired neuron is then tested at every step against noisy(f).
func fireSweep[A float64 | int32](pot, thr, dec []A, spent A, buckets [][]int, outTimes []int, adv int, scatter func(off int), noisy func(f int) A) int {
	t := len(thr)
	for off := 0; off < adv && off < t; off++ {
		scatter(off)
	}
	for i := range outTimes {
		outTimes[i] = -1
	}
	fired := 0
	if noisy != nil {
		for f := 0; f < t; f++ {
			if off := adv + f; off < t {
				scatter(off)
			}
			theta := noisy(f)
			for j := nextFire(pot, 0, theta, outTimes); j < len(pot); j = nextFire(pot, j+1, theta, outTimes) {
				outTimes[j] = f
				pot[j] = spent
				fired++
			}
		}
		return fired
	}
	for f := 0; f < t; {
		if off := adv + f; off < t {
			scatter(off)
		}
		// Extend the arrival-free run [f, f1); nothing arrives past the
		// input window (adv+f1 ≥ t).
		f1 := f + 1
		for f1 < t && adv+f1 < t && (len(buckets[adv+f1]) == 0 || dec[adv+f1] == 0) {
			f1++
		}
		if adv+f1 >= t {
			f1 = t
		}
		last := thr[f1-1]
		for j := nextFire(pot, 0, last, outTimes); j < len(pot); j = nextFire(pot, j+1, last, outTimes) {
			u := pot[j]
			lo, hi := f, f1-1 // invariant: u ≥ thr[hi]
			for lo < hi {
				if mid := int(uint(lo+hi) >> 1); u >= thr[mid] {
					hi = mid
				} else {
					lo = mid + 1
				}
			}
			outTimes[j] = lo
			pot[j] = spent
			fired++
		}
		f = f1
	}
	return fired
}

// commitBoundary finishes fire boundary b (= hidden stage b−1) on every
// engine: the stage's spikes traverse a faulty boundary on the way to
// the next layer (stuck neurons override, survivors may drop or
// jitter), then the spike count and the collected times are recorded.
func (m *Model) commitBoundary(res *Result, b int, outTimes []int, fired, adv int, cfg RunConfig) {
	if cfg.Faults != nil {
		fired = cfg.Faults.ApplyTTFS(b, outTimes, m.T)
	}
	res.Spikes[b] = fired
	if cfg.CollectSpikeTimes {
		res.SpikeTimes[b] = collectGlobal(outTimes, b*adv)
	}
	if cfg.CollectEvents {
		res.Events[b] = collectEvents(outTimes, b*adv)
	}
}

// runOutputStage integrates the last hidden layer's spikes into the
// output potentials, recording the decision timeline. The output stage
// never fires; it is read at the end of its integration window. The
// potential buffer comes from the scratch float arena and is returned as
// res.Potentials.
func (m *Model) runOutputStage(sc *InferScratch, st *snn.Stage, si int, inK kernel.Kernel, inTimes []int, windowStart int, cfg RunConfig, res *Result) {
	pot := sc.floats.take(st.OutLen)
	st.AddBias(pot)
	ss := &m.scatters()[si]
	buckets := sc.bucketizeInto(inTimes, m.T)
	dec := sc.decode(inK, m.T)

	for off := 0; off < m.T; off++ {
		if len(buckets[off]) > 0 {
			ss.scatter(buckets[off], dec[off], pot)
			if cfg.CollectTimeline {
				res.record(windowStart+off, pot)
			}
		}
	}
	res.Pred = snn.ArgMax(pot)
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
	r.recordPred(step, snn.ArgMax(pot))
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
