package core

import (
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/snn"
)

// InferEvent runs the same pipeline as Infer with an event-driven
// engine: instead of sweeping every neuron against the threshold at
// every time step (O(T·N) per layer), it keeps a bucket queue of
// candidate fire times that is re-validated only for neurons an arrival
// actually touched. Semantics are identical to
// the clocked engine — including arrival-before-threshold ordering
// within a step and non-guaranteed integration under early firing — and
// the equivalence is enforced by property tests and VerifyEnginesEvent.
//
// The event engine wins when spikes are sparse relative to T·N (the
// regime TTFS coding creates by construction); the clocked engine wins
// on dense traffic. BenchmarkEngineEvent quantifies the trade.
//
// Deprecated: use InferOne with InferOpts{Engine: EngineEvent}.
func (m *Model) InferEvent(input []float64, cfg RunConfig) Result {
	return m.InferOne(input, cfg, InferOpts{Engine: EngineEvent})
}

// InferEventWith is InferEvent against an explicit scratch arena: the
// candidate queue, version/touched bookkeeping, potentials, and the
// returned Result's Spikes/Potentials all come from sc, so the
// steady-state call allocates nothing (pinned by
// TestInferEventWithZeroAllocs). A nil sc falls back to a fresh
// single-use scratch; results are bit-identical either way (commits
// depend only on candidate steps and versions, never on queue order
// among distinct neurons). The usual scratch aliasing contract applies.
//
// Deprecated: use InferOne with InferOpts{Scratch: sc, Engine: EngineEvent}.
func (m *Model) InferEventWith(sc *InferScratch, input []float64, cfg RunConfig) Result {
	return m.InferOne(input, cfg, InferOpts{Scratch: sc, Engine: EngineEvent})
}

// inferEventBody runs the event-driven pipeline on a prepared scratch
// without rewinding its arenas (see inferClockedBody).
func (m *Model) inferEventBody(sc *InferScratch, input []float64, cfg RunConfig) Result {
	if len(input) != m.Net.InLen {
		panic(fmt.Sprintf("core: input length %d, want %d", len(input), m.Net.InLen))
	}
	if cfg.Faults.HasThresholdNoise() {
		// Per-step threshold noise invalidates the analytic candidate
		// inverse (a candidate computed against θ(f) says nothing about
		// a perturbed θ'(f)), so the whole sample runs on the clocked
		// sweep instead — bit-identical to what the clocked engine
		// produces under the same stream, with no early exit.
		return m.inferClockedBody(sc, input, cfg)
	}
	sc.ensureEvent()
	adv := cfg.advance(m.T)
	nStages := len(m.Net.Stages)
	res := Result{
		Spikes:  sc.ints.take(nStages),
		Latency: (nStages-1)*adv + m.T,
	}
	if cfg.CollectSpikeTimes {
		res.SpikeTimes = make([][]int, nStages)
	}
	if cfg.CollectEvents {
		res.Events = make([][]SpikeEvent, nStages)
	}

	times := sc.timesA[:m.Net.InLen]
	next := sc.timesB
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
		fired = cfg.Faults.ApplyTTFS(0, times, m.T)
	}
	res.Spikes[0] = fired
	if cfg.CollectSpikeTimes {
		res.SpikeTimes[0] = collectGlobal(times, 0)
	}
	if cfg.CollectEvents {
		res.Events[0] = collectEvents(times, 0)
	}

	for si := range m.Net.Stages {
		st := &m.Net.Stages[si]
		inK := m.K[si]
		if st.Output {
			m.runOutputStageEvent(sc, st, si, inK, times, si*adv, adv, cfg, &res)
			return res
		}
		outK := m.K[si+1]
		out := next[:st.OutLen]
		next = times[:cap(times)]
		m.runHiddenStageEvent(sc, st, inK, outK, times, out, adv, &res, si, cfg)
		times = out
	}
	return res
}

// candidateTab returns the earliest fire step ≥ from at which potential
// u crosses the falling threshold table thr (strictly decreasing over
// the window), or t (= never) when it cannot. The compare is the clocked
// sweep's u ≥ θ(f) verbatim, so the two engines cannot disagree on a
// fire step even at the rounding boundary of the analytic inverse; the
// two range checks resolve the common never-fires / fires-now cases
// without entering the O(log T) search.
func candidateTab(thr []float64, u float64, from, t int) int {
	if from >= t || u < thr[t-1] {
		return t
	}
	if u >= thr[from] {
		return from
	}
	// invariant: thr[lo] > u ≥ thr[hi]
	lo, hi := from, t-1
	for hi-lo > 1 {
		if mid := (lo + hi) / 2; u >= thr[mid] {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// outputBounds returns the output stage's per-RowKey single-synapse
// weight bounds: one arrival on a row with per-spike scale s moves any
// single output potential up by at most s·gain[key] and down by at most
// s·loss[key] (both stored non-negative). Cached model-lifetime; forces
// every output row to build, which Warm absorbs in serving.
func (m *Model) outputBounds(si int) (gain, loss []float64) {
	m.boundsOnce.Do(func() {
		st := &m.Net.Stages[si]
		plan := m.stagePlan(si)
		n := st.NumRowKeys()
		m.outGain = make([]float64, n)
		m.outLoss = make([]float64, n)
		for key := 0; key < n; key++ {
			var g, l float64
			for _, c := range plan.Row(key) {
				if c.W > g {
					g = c.W
				}
				if -c.W > l {
					l = -c.W
				}
			}
			m.outGain[key] = g
			m.outLoss[key] = l
		}
	})
	return m.outGain, m.outLoss
}

// runHiddenStageEvent is the event-driven counterpart of runHiddenStage,
// writing spike-time offsets into outTimes (len st.OutLen). Candidates
// live in a bucket queue indexed by fire step — pushes are appends and
// the commit sweep is a cursor walk, with none of a binary heap's
// sifting — seeded by a single potential scan after guaranteed
// integration. Entries are verified against the live potential when
// their bucket is reached, so a potential that *fell* after scheduling
// needs no eager fix-up; only a touch that moves the crossing earlier
// than the scheduled step pays for a (range-narrowed) search. The
// correctness invariant is that an unfired neuron whose potential
// crosses the threshold always has a live entry at or before its true
// crossing step; a too-early entry is rescheduled exactly at pop time.
func (m *Model) runHiddenStageEvent(sc *InferScratch, st *snn.Stage, inK, outK kernel.Kernel, inTimes, outTimes []int, adv int, res *Result, si int, cfg RunConfig) {
	pot := sc.pot[:st.OutLen]
	for i := range pot {
		pot[i] = 0
	}
	st.AddBias(pot)
	plan := m.stagePlan(si)
	buckets := sc.bucketizeInto(inTimes, m.T)
	dec := sc.decode(inK, m.T)
	thr := sc.thresholds(outK, m.T)

	stamp := sc.evStamp[:st.OutLen]
	// Reserve this stage's epoch range: base+f stamps the arrivals at
	// fire-phase step f. Stamps from earlier stages or calls are below
	// base and compare unequal, so no O(N) clearing per stage.
	base := sc.evEpoch + 1
	sc.evEpoch = base + uint64(m.T)

	// guaranteed integration: the same scatter the clocked engine runs,
	// with no per-synapse bookkeeping
	for off := 0; off < adv && off < m.T; off++ {
		for _, idx := range buckets[off] {
			scatterPlanned(plan, st, idx, dec[off], pot)
		}
	}

	for i := range outTimes {
		outTimes[i] = -1
	}
	firedCount := 0

	// Candidate bucket queue: q[c] holds the neurons scheduled for a
	// threshold check at step c. A stage always drains its queue (the
	// final fireUpTo clears every bucket through m.T), so the buckets
	// start empty here. nf[j] tracks j's earliest live entry (m.T =
	// none); it both dedups pushes and narrows candidate searches.
	q := sc.evQ[:m.T]
	nf := sc.evNext[:st.OutLen]
	nT := int32(m.T)

	// Seed from one scan of the potentials: a neuron can fire before
	// any further arrival touches it only if its potential is already
	// positive (an untouched neuron's potential is exactly its bias),
	// and commits depend only on scheduled steps and the live potential
	// — never on push order — so the scan is equivalent to the clocked
	// sweep.
	for j, u := range pot {
		nf[j] = nT
		if u > 0 {
			if c := candidateTab(thr, u, 0, m.T); c < m.T {
				q[c] = append(q[c], int32(j))
				nf[j] = int32(c)
			}
		}
	}

	cur := 0
	fireUpTo := func(limit int) {
		for ; cur < limit; cur++ {
			b := q[cur]
			for _, j32 := range b {
				j := int(j32)
				if outTimes[j] >= 0 {
					continue // already fired
				}
				// The same compare the clocked sweep makes at step cur.
				// Arrivals at steps ≤ cur have all been applied (the
				// stage loop integrates step f's arrivals only after
				// fireUpTo(f)), so pot is exactly the clocked value.
				if pot[j] >= thr[cur] {
					outTimes[j] = cur
					firedCount++
					continue
				}
				// Scheduled too early (the potential fell since the
				// push): reschedule at the exact crossing for the
				// current potential. Steps in (cur, next touch) see
				// this same potential, so the new entry is exact until
				// a touch supersedes it.
				if c := candidateTab(thr, pot[j], cur+1, m.T); c < m.T {
					q[c] = append(q[c], j32)
					nf[j] = int32(c)
				} else {
					nf[j] = nT
				}
			}
			q[cur] = b[:0] // keep grown capacity
		}
	}

	// arrivals during the fire phase land at local steps 0..T-1-adv
	lastArrival := m.T - adv
	for f := 0; f < lastArrival; f++ {
		inOff := adv + f
		bs := buckets[inOff]
		if len(bs) == 0 {
			continue
		}
		// all fires strictly before this step are settled
		fireUpTo(f)
		// Arrivals precede the threshold check at step f: integrate
		// them, stamping each touched neuron once (conv rows overlap
		// heavily, so deduping inside the scatter beats revisiting the
		// rows), then restore the scheduling invariant per touched,
		// unfired neuron.
		epoch := base + uint64(f)
		touched := sc.evTouched[:0]
		for _, idx := range bs {
			key, div := st.RowKey(idx)
			s := dec[inOff] / div
			for _, c := range plan.Row(key) {
				pot[c.J] += s * c.W
				if stamp[c.J] != epoch {
					stamp[c.J] = epoch
					touched = append(touched, c.J)
				}
			}
		}
		thf := thr[f]
		f32 := int32(f)
		for _, j32 := range touched {
			j := int(j32)
			if outTimes[j] >= 0 {
				continue
			}
			u := pot[j]
			if u >= thf {
				// crosses at this very step
				if nf[j] != f32 {
					q[f] = append(q[f], j32)
					nf[j] = f32
				}
				continue
			}
			hi := int(nf[j])
			if hi >= m.T {
				hi = m.T - 1 // no live entry: the window end bounds the search
			}
			if u < thr[hi] {
				// The crossing (if any) is beyond hi. With a live entry
				// at hi the invariant already holds (pop-time
				// verification reschedules it exactly); without one the
				// potential cannot cross even the window's lowest
				// threshold, so no entry is needed.
				continue
			}
			// The crossing moved to (f, hi]: binary search the narrowed
			// range (thr[f] > u ≥ thr[hi]), then schedule unless that
			// exact entry is already live.
			lo := f
			for hi-lo > 1 {
				if mid := (lo + hi) / 2; u >= thr[mid] {
					hi = mid
				} else {
					lo = mid
				}
			}
			if nf[j] != int32(hi) {
				q[hi] = append(q[hi], j32)
				nf[j] = int32(hi)
			}
		}
		sc.evTouched = touched[:0] // keep grown capacity
	}
	fireUpTo(m.T)

	if cfg.Faults != nil {
		// The stage's spikes traverse a faulty boundary on the way to
		// the next layer, exactly as in the clocked engine.
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
// (outputBounds) — so pot[best] − second > remGain + remLoss (padded
// for FP drift) proves best stays the strict argmax, preserving the
// lowest-index tie-break. Without EarlyExit (or with CollectTimeline,
// which needs the full window) it defers to the clocked runOutputStage.
func (m *Model) runOutputStageEvent(sc *InferScratch, st *snn.Stage, si int, inK kernel.Kernel, inTimes []int, windowStart, adv int, cfg RunConfig, res *Result) {
	if !cfg.EarlyExit || cfg.CollectTimeline {
		m.runOutputStage(sc, st, si, inK, inTimes, windowStart, adv, cfg, res)
		return
	}
	pot := sc.floats.take(st.OutLen)
	st.AddBias(pot)
	plan := m.stagePlan(si)
	buckets := sc.bucketizeInto(inTimes, m.T)
	dec := sc.decode(inK, m.T)
	gain, loss := m.outputBounds(si)

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
			key, div := st.RowKey(idx)
			g += gain[key] / div
			l += loss[key] / div
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
		for _, idx := range buckets[off] {
			scatterPlanned(plan, st, idx, dec[off], pot)
		}
		if exitAt(off) {
			return
		}
	}
	res.Pred = argmax(pot)
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

// VerifyEnginesEvent checks the clocked and event-driven engines agree
// on one input under the given pipeline configuration.
func (m *Model) VerifyEnginesEvent(input []float64, cfg RunConfig) error {
	cfg.CollectSpikeTimes = true
	// Full-equivalence check: early exit intentionally leaves the
	// output potentials partial, so it is disabled here. VerifyEarlyExit
	// covers the argmax-only early-exit contract.
	cfg.EarlyExit = false
	clocked := m.InferOne(input, cfg, InferOpts{})
	event := m.InferOne(input, cfg, InferOpts{Engine: EngineEvent})
	if clocked.Pred != event.Pred {
		return fmt.Errorf("core: engines disagree on prediction: clocked %d, event %d", clocked.Pred, event.Pred)
	}
	if clocked.TotalSpikes != event.TotalSpikes {
		return fmt.Errorf("core: engines disagree on spikes: clocked %d, event %d", clocked.TotalSpikes, event.TotalSpikes)
	}
	for b := range clocked.SpikeTimes {
		a, e := clocked.SpikeTimes[b], event.SpikeTimes[b]
		if len(a) != len(e) {
			return fmt.Errorf("core: boundary %d spike counts differ: %d vs %d", b, len(a), len(e))
		}
		for i := range a {
			if a[i] != e[i] {
				return fmt.Errorf("core: boundary %d spike %d differs: %d vs %d", b, i, a[i], e[i])
			}
		}
	}
	for j := range clocked.Potentials {
		d := clocked.Potentials[j] - event.Potentials[j]
		if d > 1e-9 || d < -1e-9 {
			return fmt.Errorf("core: output potential %d differs: %v vs %v", j, clocked.Potentials[j], event.Potentials[j])
		}
	}
	return nil
}

// VerifyEarlyExit checks the early-exit event engine's argmax contract
// against the clocked engine on one input: identical predictions, with
// the event run free to stop the output window early.
func (m *Model) VerifyEarlyExit(input []float64, cfg RunConfig) error {
	clocked := m.InferOne(input, cfg, InferOpts{})
	cfg.EarlyExit = true
	event := m.InferOne(input, cfg, InferOpts{Engine: EngineEvent})
	if clocked.Pred != event.Pred {
		return fmt.Errorf("core: early exit changed the prediction: clocked %d, event %d (exit=%v, steps saved %d)",
			clocked.Pred, event.Pred, event.EarlyExit, event.StepsSaved)
	}
	if event.Latency > clocked.Latency {
		return fmt.Errorf("core: early-exit latency %d exceeds clocked %d", event.Latency, clocked.Latency)
	}
	return nil
}
