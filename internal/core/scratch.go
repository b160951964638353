package core

import (
	"repro/internal/kernel"
)

// InferScratch is the reusable working set of one inference engine: the
// per-stage potential and spike-offset buffers, the decode and
// threshold LUTs, the spike-offset buckets, and the arenas that back the
// returned Result slices. TTFS coding fires each neuron at most once, so
// the working set is a fixed function of the model geometry — allocate a
// scratch once, reuse it per call, and the steady-state hot path
// allocates nothing (pinned per engine by TestInferWithZeroAllocs,
// TestInferEventWithZeroAllocs, TestEarlyExitZeroAllocs and
// TestQuantEngineZeroAllocs).
//
// A scratch is NOT safe for concurrent use; give each worker its own
// (internal/serve keeps one per pool worker plus a sync.Pool of spares
// per engine). Results returned by InferOne alias scratch memory: they
// are valid until the next call that reuses the same scratch. Callers
// that retain results across calls must copy Spikes and Potentials
// first — or pass a nil scratch, which falls back to a fresh single-use
// arena.
type InferScratch struct {
	// sized-for dimensions (grown on demand, never shrunk)
	maxLen int // max of InLen and every stage OutLen
	window int // LUT horizon (model T)

	// single-sample working state
	timesA, timesB []int     // ping-pong spike-offset buffers
	pot            []float64 // hidden-stage membrane potentials
	dec            []float64 // ε(t) decode LUT, rebuilt per stage
	thr            []float64 // θ(f) threshold LUT, rebuilt per stage
	buckets        [][]int   // spike indices grouped by window offset

	// early-exit working state (EngineEvent with RunConfig.EarlyExit),
	// allocated lazily by ensureEvent: the suffix bounds over the output
	// window, the largest total rise/fall any single potential can see
	// from arrivals at offset ≥ off (window+1 entries)
	evWindow       int
	evGain, evLoss []float64

	// fixed-point engine working state (EngineQuant), allocated lazily
	// by ensureQuant so float-only scratches never pay for it
	qMaxLen int     // quant accumulator capacity
	qWindow int     // quant LUT capacity
	qacc    []int32 // int32 membrane accumulators (stage-scaled units)
	qdec    []int32 // quantized decode LUT, rebuilt per stage
	qthr    []int32 // quantized threshold LUT, rebuilt per stage

	// result arenas (reset per InferOne)
	ints   intArena   // Result.Spikes
	floats floatArena // Result.Potentials (output-stage membranes)
}

// NewInferScratch allocates a scratch pre-sized for clocked inference
// on m; the early-exit and quant buffers are sized on first use.
func NewInferScratch(m *Model) *InferScratch {
	sc := &InferScratch{}
	sc.ensure(m)
	return sc
}

// ensure grows the single-sample buffers to fit m.
func (sc *InferScratch) ensure(m *Model) {
	maxLen := m.Net.InLen
	for i := range m.Net.Stages {
		if n := m.Net.Stages[i].OutLen; n > maxLen {
			maxLen = n
		}
	}
	if maxLen > sc.maxLen {
		sc.maxLen = maxLen
		sc.timesA = make([]int, maxLen)
		sc.timesB = make([]int, maxLen)
		sc.pot = make([]float64, maxLen)
	}
	if m.T > sc.window {
		sc.window = m.T
		luts := make([]float64, 2*m.T) // one allocation for both LUTs
		sc.dec, sc.thr = luts[:m.T:m.T], luts[m.T:]
		old := sc.buckets
		sc.buckets = make([][]int, m.T)
		copy(sc.buckets, old) // keep grown bucket capacity
	}
}

// ensureEvent grows the early-exit buffers; only the early-exit output
// stage calls it, so other inference on a fresh scratch allocates
// nothing extra. ensure must have run first (it sets window).
func (sc *InferScratch) ensureEvent() {
	if sc.window > sc.evWindow {
		sc.evWindow = sc.window
		sc.evGain = make([]float64, sc.window+1)
		sc.evLoss = make([]float64, sc.window+1)
	}
}

// ensureQuant grows the fixed-point engine buffers; only the quant
// pipeline calls it, so float-only scratches never allocate them.
// ensure must have run first (it sets maxLen and window).
func (sc *InferScratch) ensureQuant() {
	if sc.maxLen > sc.qMaxLen {
		sc.qMaxLen = sc.maxLen
		sc.qacc = make([]int32, sc.maxLen)
	}
	if sc.window > sc.qWindow {
		sc.qWindow = sc.window
		sc.qdec = make([]int32, sc.window)
		sc.qthr = make([]int32, sc.window)
	}
}

// reset rewinds the result arenas; called once per InferOne.
func (sc *InferScratch) reset() {
	sc.ints.reset()
	sc.floats.reset()
}

// decode fills the scratch LUT with ε(t) at every window offset — the
// zero-allocation twin of decodeTable.
func (sc *InferScratch) decode(k kernel.Kernel, t int) []float64 {
	dec := sc.dec[:t]
	for i := range dec {
		dec[i] = k.Decode(i)
	}
	return dec
}

// thresholds fills the scratch LUT with θ(f) at every step of the fire
// window — the values a per-step sweep computes one step at a time, so
// a table compare and a per-step compare agree bit for bit.
func (sc *InferScratch) thresholds(k kernel.Kernel, t int) []float64 {
	thr := sc.thr[:t]
	for i := range thr {
		thr[i] = k.Threshold(float64(i))
	}
	return thr
}

// bucketizeInto groups spike indices by their time offset into the
// scratch buckets, reusing each bucket's capacity.
func (sc *InferScratch) bucketizeInto(times []int, t int) [][]int {
	buckets := sc.buckets[:t]
	for i := range buckets {
		buckets[i] = buckets[i][:0]
	}
	for idx, off := range times {
		if off >= 0 && off < t {
			buckets[off] = append(buckets[off], idx)
		}
	}
	return buckets
}

// intArena hands out zeroed []int blocks from a reusable backing array.
// Blocks stay valid after a mid-call grow (they keep referencing the old
// backing); reset only rewinds the cursor, so previously returned blocks
// are overwritten by the next call — the scratch aliasing contract.
type intArena struct {
	buf []int
	off int
}

func (a *intArena) reset() { a.off = 0 }

func (a *intArena) take(n int) []int {
	if a.off+n > len(a.buf) {
		a.buf = make([]int, 2*(a.off+n))
		a.off = 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	for i := range s {
		s[i] = 0
	}
	return s
}

// floatArena is intArena for float64 blocks.
type floatArena struct {
	buf []float64
	off int
}

func (a *floatArena) reset() { a.off = 0 }

func (a *floatArena) take(n int) []float64 {
	if a.off+n > len(a.buf) {
		a.buf = make([]float64, 2*(a.off+n))
		a.off = 0
	}
	s := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	for i := range s {
		s[i] = 0
	}
	return s
}
