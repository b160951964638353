package coding

import (
	"repro/internal/fault"
	"repro/internal/snn"
)

// Scratch is the reusable working set of the clock-driven scheme
// simulator: input accumulators, per-stage membrane potentials, weight
// ladder rungs, and the per-boundary spike buffers. Pass one via
// RunOpts.Scratch to stop a sustained caller (serving worker, evaluation
// sweep) from reallocating the full working set on every Run.
//
// A Scratch is NOT safe for concurrent use; give each worker its own.
// A SimResult produced with a scratch aliases scratch memory through its
// Potentials and SpikesPerStage fields: it is valid until the next Run
// that reuses the same scratch. Results are bit-identical to
// scratch-free runs (pinned by the differential tests in
// scratch_test.go): reused buffers are reset to exactly the state fresh
// allocations start in.
type Scratch struct {
	maxStages int
	acc       []float64   // input accumulators (rate/burst)
	accRung   []int       // input ladder rungs (rate/burst)
	bits      []uint32    // quantized inputs (phase)
	pow       []float64   // burst weight ladder
	pot       [][]float64 // per-stage membrane potentials
	potBack   []float64
	rung      [][]int // per-stage ladder rungs
	rungBack  []int
	spikeBuf  [][]fault.Spike // per-boundary spike lists
	counts    []int           // SimResult.SpikesPerStage backing
}

// NewScratch returns an empty scratch; buffers are sized on first use.
func NewScratch() *Scratch { return &Scratch{} }

// scratchFor returns opts.Scratch or a fresh single-use scratch, so the
// simulators run one allocation discipline regardless of the caller.
func scratchFor(opts RunOpts) *Scratch {
	if opts.Scratch != nil {
		return opts.Scratch
	}
	return NewScratch()
}

// floats returns a zeroed float buffer of n entries.
func (sc *Scratch) floats(n int) []float64 {
	if cap(sc.acc) < n {
		sc.acc = make([]float64, n)
	}
	s := sc.acc[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// ints returns a zeroed int buffer of n entries.
func (sc *Scratch) ints(n int) []int {
	if cap(sc.accRung) < n {
		sc.accRung = make([]int, n)
	}
	s := sc.accRung[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// uint32s returns a zeroed uint32 buffer of n entries.
func (sc *Scratch) uint32s(n int) []uint32 {
	if cap(sc.bits) < n {
		sc.bits = make([]uint32, n)
	}
	s := sc.bits[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// powers returns the burst weight ladder [1, g, g², …] of length n.
func (sc *Scratch) powers(g float64, n int) []float64 {
	if cap(sc.pow) < n {
		sc.pow = make([]float64, n)
	}
	p := sc.pow[:n]
	p[0] = 1
	for i := 1; i < n; i++ {
		p[i] = p[i-1] * g
	}
	return p
}

// stageCounts returns a zeroed per-boundary spike tally of n entries,
// the SimResult.SpikesPerStage backing (results arena).
func (sc *Scratch) stageCounts(n int) []int {
	if cap(sc.counts) < n {
		sc.counts = make([]int, n)
	}
	s := sc.counts[:n:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// ensureStages sizes the per-stage buffer tables for net.
func (sc *Scratch) ensureStages(net *snn.Net) {
	n := len(net.Stages)
	if n > sc.maxStages {
		sc.maxStages = n
		sc.pot = make([][]float64, n)
		sc.rung = make([][]int, n)
		old := sc.spikeBuf
		sc.spikeBuf = make([][]fault.Spike, n+1)
		copy(sc.spikeBuf, old) // keep grown spike-list capacity
	}
	total := 0
	for i := range net.Stages {
		total += net.Stages[i].OutLen
	}
	if cap(sc.potBack) < total {
		sc.potBack = make([]float64, total)
	}
	if cap(sc.rungBack) < total {
		sc.rungBack = make([]int, total)
	}
}

// potentials returns zeroed per-stage membrane buffers for net.
func (sc *Scratch) potentials(net *snn.Net) [][]float64 {
	sc.ensureStages(net)
	pot := sc.pot[:len(net.Stages)]
	off := 0
	for si := range net.Stages {
		n := net.Stages[si].OutLen
		p := sc.potBack[off : off+n : off+n]
		for i := range p {
			p[i] = 0
		}
		pot[si] = p
		off += n
	}
	return pot
}

// rungs returns zeroed per-stage ladder-rung buffers for net.
func (sc *Scratch) rungs(net *snn.Net) [][]int {
	sc.ensureStages(net)
	bb := sc.rung[:len(net.Stages)]
	off := 0
	for si := range net.Stages {
		n := net.Stages[si].OutLen
		b := sc.rungBack[off : off+n : off+n]
		for i := range b {
			b[i] = 0
		}
		bb[si] = b
		off += n
	}
	return bb
}

// spikeBufs returns the per-boundary spike lists, each emptied but
// keeping its grown capacity.
func (sc *Scratch) spikeBufs(net *snn.Net) [][]fault.Spike {
	sc.ensureStages(net)
	bufs := sc.spikeBuf[:len(net.Stages)+1]
	for i := range bufs {
		bufs[i] = bufs[i][:0]
	}
	return bufs
}
