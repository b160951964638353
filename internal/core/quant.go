package core

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/quant"
	"repro/internal/snn"
)

// The fixed-point engine (EngineQuant) runs the clocked T2FSNN pipeline
// on int8 weights and int32 membrane accumulators.
//
// Per stage, weights are quantized once to the stage's 8-bit dynamic
// fixed-point format (quant.FormatFor): wq = FixedRound(w/step), stored
// in a structure-of-arrays scatter plan (snn.SoAPlan) that drops
// zero-quantized synapses at build time. At inference time potentials
// live in integer "accumulator units" of size step·2^−sf, where sf is a
// per-stage left shift chosen so the worst-case accumulator magnitude
// stays below accCap (int32 with 2× headroom): the decode LUT, the
// threshold LUT, and the bias are each rounded onto that grid once per
// stage, the scatter inner loop is pure int32 multiply-accumulate, and
// the only rescale back to float happens at the output stage boundary.
//
// All rounding goes through snn.FixedRound — the same half-away-from-
// zero convention as quant.Format.Quantize — so the engine's int8 grid
// is bit-identical to QuantizeNet's.

// weightBits is the fixed-point weight width: sign + 7 = int8, the
// narrowest format internal/quant's ablation shows preserves accuracy
// ordering on the fixture nets.
const weightBits = 8

// accCap bounds the worst-case |accumulator| (and quantized threshold)
// a stage may produce: 2^30 leaves a factor-2 headroom below int32
// overflow for LUT rounding slop and fault-injected threshold noise.
const accCap = float64(1 << 30)

// quantStage is the per-stage weight-grid state of the fixed-point
// engine, cached for the model's lifetime (weights are frozen; see
// stageScatter). Kernel-dependent values — decode, threshold, and
// the stage shift sf — are requantized per call into scratch LUTs, so
// ApplyGO needs no invalidation.
type quantStage struct {
	plan *snn.SoAPlan
	// bias is the per-neuron bias expanded to OutLen (conv stages store
	// one bias per channel; the accumulators want one per neuron).
	bias       []float64
	biasMaxAbs float64
	div        float64 // pool divisor shared by every row of the stage
	step       float64 // weight grid step 2^−FracBits
	maxQ       int32   // weight grid saturation bound
}

// quantStages builds (once) the per-stage SoA plans and grid constants.
func (m *Model) quantStages() []quantStage {
	m.quantOnce.Do(func() {
		m.qstages = make([]quantStage, len(m.Net.Stages))
		for i := range m.Net.Stages {
			st := &m.Net.Stages[i]
			f, err := quant.FormatFor(maxAbsSlice(st.W.Data), weightBits)
			if err != nil {
				panic("core: " + err.Error()) // unreachable: weightBits ≥ 2
			}
			qs := &m.qstages[i]
			qs.step, qs.maxQ = f.Step(), f.MaxQ()
			qs.plan = snn.NewSoAPlan(st, qs.step, qs.maxQ)
			_, qs.div = st.RowKey(0)
			qs.bias = expandBias(st)
			for _, b := range qs.bias {
				if a := math.Abs(b); a > qs.biasMaxAbs {
					qs.biasMaxAbs = a
				}
			}
		}
	})
	return m.qstages
}

// expandBias returns the stage bias as one float64 per output neuron.
func expandBias(st *snn.Stage) []float64 {
	out := make([]float64, st.OutLen)
	st.AddBias(out)
	return out
}

// maxAbsSlice returns max |v| over the slice.
func maxAbsSlice(data []float64) float64 {
	m := 0.0
	for _, v := range data {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// stageShift picks the per-stage accumulator shift sf: the largest
// sf ≥ 0 keeping both the worst-case accumulator magnitude (bias plus
// MaxInDegree saturated arrivals at the peak decode value) and the
// peak quantized threshold below accCap. ok=false means even sf=0
// overflows int32 — the caller falls back to the float engine.
func stageShift(qs *quantStage, decMax, thetaMax float64) (sf int, ok bool) {
	need := qs.biasMaxAbs + float64(qs.plan.MaxInDegree)*float64(qs.maxQ)*qs.step*(decMax/qs.div)
	if thetaMax > need {
		need = thetaMax
	}
	for sf = 30; sf >= 0; sf-- {
		if need*math.Exp2(float64(sf))/qs.step < accCap {
			return sf, true
		}
	}
	return 0, false
}

// clampQ rounds to the accumulator grid with int32 saturation, via the
// repo-wide snn.FixedRound convention.
func clampQ(x float64) int32 {
	q := snn.FixedRound(x)
	if q >= math.MaxInt32 {
		return math.MaxInt32
	}
	if q <= math.MinInt32 {
		return math.MinInt32
	}
	return int32(q)
}

// scatterQuant replays one SoA row into the int32 accumulators:
// acc[j] += s·wq for every kept synapse of the row, where s is the
// stage-scaled quantized decode value of the arrival offset (the pool
// divisor is already folded into s).
func scatterQuant(plan *snn.SoAPlan, st *snn.Stage, idx int, s int32, acc []int32) {
	key, _ := st.RowKey(idx)
	a, b := plan.Off[key], plan.Off[key+1]
	ix := plan.Idx[a:b]
	ws := plan.Wq[a:b]
	ws = ws[:len(ix)] // bounds-check hint: rows are parallel by construction
	for i, j := range ix {
		acc[j] += s * int32(ws[i])
	}
}

// quantDecode fills the scratch quantized-decode LUT for one stage:
// qdec[off] = round(ε(off)/div · 2^sf), i.e. the per-arrival scale in
// accumulator units per weight grid step.
func (sc *InferScratch) quantDecode(dec []float64, div float64, sf int) []int32 {
	scale := math.Exp2(float64(sf)) / div
	qdec := sc.qdec[:len(dec)]
	for i, d := range dec {
		qdec[i] = clampQ(d * scale)
	}
	return qdec
}

// quantThresholds fills the scratch quantized-threshold LUT:
// qthr[f] = round(θ(f)/unit) with unit = step·2^−sf.
func (sc *InferScratch) quantThresholds(k kernel.Kernel, t int, step float64, sf int) []int32 {
	scale := math.Exp2(float64(sf)) / step
	qthr := sc.qthr[:t]
	for f := range qthr {
		qthr[f] = clampQ(k.Threshold(float64(f)) * scale)
	}
	return qthr
}

// inferQuantBody runs the int8 clocked pipeline on a prepared scratch
// without rewinding its arenas. It mirrors inferClockedBody step for
// step — same encode, same bucketing, same fire sweep, same fault
// hooks — with potentials held in int32 accumulator units. A model
// whose headroom analysis cannot fit int32 at sf=0 falls back to the
// float clocked engine for the whole call.
func (m *Model) inferQuantBody(sc *InferScratch, input []float64, cfg RunConfig) Result {
	res, times, next, adv := m.encode(sc, input, cfg)
	qstages := m.quantStages()
	sc.ensureQuant()
	for si := range m.Net.Stages {
		st := &m.Net.Stages[si]
		qs := &qstages[si]
		inK := m.K[si]
		windowStart := si * adv

		// Per-stage headroom: requantize the kernel-dependent scale. If
		// even sf=0 overflows int32, rerun the whole sample on the float
		// engine — fault streams are pure functions of their keys, so the
		// restart injects exactly what a pure clocked run would. The
		// Spikes block taken above is simply abandoned to the arena.
		dec := sc.decode(inK, m.T)
		decMax := 0.0
		for _, d := range dec {
			if d > decMax {
				decMax = d
			}
		}
		thetaMax := 0.0
		if !st.Output {
			thetaMax = m.K[si+1].Threshold(0) // θ(f) = θ₀·ε(f) peaks at f=0
		}
		sf, ok := stageShift(qs, decMax, thetaMax)
		if !ok {
			return m.inferClockedBody(sc, input, cfg)
		}

		if st.Output {
			m.runOutputStageQuant(sc, qs, st, dec, times, windowStart, cfg, &res, sf)
			return res
		}

		outK := m.K[si+1]
		out := next[:st.OutLen]
		next = times[:cap(times)]
		m.runHiddenStageQuant(sc, qs, st, outK, dec, times, out, adv, &res, si, cfg, sf)
		times = out
	}
	return res // unreachable: Validate guarantees an output stage
}

// runHiddenStageQuant is runHiddenStage on int32 accumulators: arrivals
// scatter quantized decode × int8 weight products, and the shared
// fireSweep fires neurons when acc ≥ quantized θ(f). The per-step naive
// reference in quant_test pins its exactness.
func (m *Model) runHiddenStageQuant(sc *InferScratch, qs *quantStage, st *snn.Stage, outK kernel.Kernel, dec []float64, inTimes, outTimes []int, adv int, res *Result, si int, cfg RunConfig, sf int) {
	unitInv := math.Exp2(float64(sf)) / qs.step
	acc := sc.qacc[:st.OutLen]
	for j := range acc {
		acc[j] = clampQ(qs.bias[j] * unitInv)
	}
	qdec := sc.quantDecode(dec, qs.div, sf)
	qthr := sc.quantThresholds(outK, m.T, qs.step, sf)
	plan := qs.plan

	buckets := sc.bucketizeInto(inTimes, m.T)
	scatter := func(off int) {
		if s := qdec[off]; s != 0 {
			for _, idx := range buckets[off] {
				scatterQuant(plan, st, idx, s, acc)
			}
		}
	}
	var noisy func(f int) int32
	if cfg.Faults.HasThresholdNoise() {
		// Noise is injected in real units, then requantized onto the
		// stage grid — hardware perturbs the comparator's reference,
		// not the stored integer.
		noisy = func(f int) int32 {
			return clampQ(cfg.Faults.Threshold(si+1, f, outK.Threshold(float64(f))) * unitInv)
		}
	}
	fired := fireSweep(acc, qthr, qdec, math.MinInt32, buckets, outTimes, adv, scatter, noisy)
	m.commitBoundary(res, si+1, outTimes, fired, adv, cfg)
}

// runOutputStageQuant integrates the last hidden layer's spikes into
// int32 output accumulators and performs the engine's single rescale:
// res.Potentials = acc · step·2^−sf, dequantized once at the stage
// boundary. The argmax is taken in integer units (monotone in the
// dequantized value, lowest-index ties either way).
func (m *Model) runOutputStageQuant(sc *InferScratch, qs *quantStage, st *snn.Stage, dec []float64, inTimes []int, windowStart int, cfg RunConfig, res *Result, sf int) {
	unitInv := math.Exp2(float64(sf)) / qs.step
	acc := sc.qacc[:st.OutLen]
	for j := range acc {
		acc[j] = clampQ(qs.bias[j] * unitInv)
	}
	qdec := sc.quantDecode(dec, qs.div, sf)
	plan := qs.plan
	buckets := sc.bucketizeInto(inTimes, m.T)

	for off := 0; off < m.T; off++ {
		if len(buckets[off]) > 0 {
			if s := qdec[off]; s != 0 {
				for _, idx := range buckets[off] {
					scatterQuant(plan, st, idx, s, acc)
				}
			}
			if cfg.CollectTimeline {
				res.recordPred(windowStart+off, argmaxI32(acc))
			}
		}
	}
	res.Pred = argmaxI32(acc)
	pot := sc.floats.take(st.OutLen)
	unit := 1 / unitInv
	for j, u := range acc {
		pot[j] = float64(u) * unit
	}
	res.Potentials = pot
	if cfg.CollectTimeline {
		res.recordPred(res.Latency, res.Pred)
	}
	res.TotalSpikes = 0
	for _, s := range res.Spikes {
		res.TotalSpikes += s
	}
}

// argmaxI32 is argmax for int32 slices (lowest index wins ties).
func argmaxI32(v []int32) int {
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
