package core

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/snn"
)

// inferEventBody is the clocked pipeline with an early-exit output
// stage: the hidden stages are runHiddenStage's, so every spike time and
// count is the clocked engine's, and with RunConfig.EarlyExit set (and
// no CollectTimeline, which needs the full window) the output window
// stops once the winner is provably undominated (runOutputStageEvent).
// The exit rule reads only the output potentials and weight bounds,
// never θ, so it holds under threshold noise too.
func (m *Model) inferEventBody(sc *InferScratch, input []float64, cfg RunConfig) Result {
	return m.inferFloat(sc, input, cfg, cfg.EarlyExit && !cfg.CollectTimeline)
}

// eeRelSlack/eeAbsSlack pad the undominated-winner comparison against
// floating-point drift: the suffix bounds are exact in real arithmetic
// but the potentials accumulate rounding, so the margin must clear the
// bound by a sliver proportional to the operand magnitudes before the
// exit is taken. Making the check conservative can only delay an exit,
// never corrupt a prediction.
const (
	eeRelSlack = 1e-9
	eeAbsSlack = 1e-12
)

// runOutputStageEvent integrates the output window with the early-exit
// undominated-winner rule: the output stage never fires, so "the winner
// has fired" never triggers; instead the integration stops at the first
// arrival offset where no sequence of remaining arrivals can change the
// argmax. The proof obligation per offset is
//
//	final[best]  ≥ pot[best]  − remLoss   (potentials can only fall so far)
//	final[j≠best] ≤ pot[j] + remGain ≤ second + remGain
//
// with remGain/remLoss the suffix sums of the per-arrival row bounds
// (Model.outGain/outLoss) — so pot[best] − second > remGain + remLoss
// (padded for FP drift) proves best stays the strict argmax, preserving
// the lowest-index tie-break.
func (m *Model) runOutputStageEvent(sc *InferScratch, st *snn.Stage, si int, inK kernel.Kernel, inTimes []int, windowStart int, res *Result) {
	sc.ensureEvent()
	pot := sc.floats.take(st.OutLen)
	st.AddBias(pot)
	ss := &m.scatters()[si]
	buckets := sc.bucketizeInto(inTimes, m.T)
	dec := sc.decode(inK, m.T)
	gain, loss := m.outGain, m.outLoss

	// Suffix bounds over the window, built tail-first by pure
	// accumulation (no subtraction drift can understate a bound):
	// remGain[off] is the most any single potential can still rise from
	// arrivals at offsets ≥ off, remLoss[off] the most it can fall.
	remGain := sc.evGain[:m.T+1]
	remLoss := sc.evLoss[:m.T+1]
	remGain[m.T], remLoss[m.T] = 0, 0
	events := 0
	for off := m.T - 1; off >= 0; off-- {
		var g, l float64
		for _, idx := range buckets[off] {
			key := ss.key(idx)
			g += gain[key] / ss.div
			l += loss[key] / ss.div
		}
		remGain[off] = remGain[off+1] + dec[off]*g
		remLoss[off] = remLoss[off+1] + dec[off]*l
		events += len(buckets[off])
	}

	finish := func() {
		res.Potentials = pot
		res.TotalSpikes = 0
		for _, s := range res.Spikes {
			res.TotalSpikes += s
		}
	}
	// exitAt applies the undominated check after the arrivals at offset
	// off (off = -1: before any) and fills the result when it proves
	// out. res.Latency becomes the decision step — the step at which a
	// hardware readout could stop.
	exitAt := func(off int) bool {
		best, second, bi := bestTwo(pot)
		bound := remGain[off+1] + remLoss[off+1]
		if best-second <= bound+eeRelSlack*(math.Abs(best)+math.Abs(second)+bound)+eeAbsSlack {
			return false
		}
		res.Pred = bi
		res.EarlyExit = true
		res.StepsSaved = m.T - 1 - off
		for o := off + 1; o < m.T; o++ {
			res.EventsSaved += len(buckets[o])
		}
		if lat := windowStart + off + 1; lat < res.Latency {
			res.Latency = lat
		}
		finish()
		return true
	}

	// With no arrivals at all the bias alone decides and there is
	// nothing to save; otherwise the bias may already dominate every
	// possible arrival sequence.
	if events > 0 && exitAt(-1) {
		return
	}
	for off := 0; off < m.T; off++ {
		if len(buckets[off]) == 0 {
			continue
		}
		ss.scatter(buckets[off], dec[off], pot)
		if exitAt(off) {
			return
		}
	}
	res.Pred = snn.ArgMax(pot)
	finish()
}

// bestTwo returns the largest and second-largest entries of v and the
// index of the largest, replicating argmax's lowest-index tie-break. A
// single-entry v has second = -Inf (any margin dominates).
func bestTwo(v []float64) (best, second float64, bi int) {
	best, bi = v[0], 0
	second = math.Inf(-1)
	for i := 1; i < len(v); i++ {
		if x := v[i]; x > best {
			second, best, bi = best, x, i
		} else if x > second {
			second = x
		}
	}
	return best, second, bi
}
