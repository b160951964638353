// Package snn provides the spiking-network substrate: the converted
// network representation shared by every coding scheme, integrate-and-
// fire neuron state, a clock-driven simulator, and spike/latency
// accounting. The T2FSNN core (internal/core) and the baseline coding
// schemes (internal/coding) are built on top of it.
package snn

import (
	"fmt"

	"repro/internal/tensor"
)

// StageKind distinguishes the two weighted stage types.
type StageKind int

// Stage kinds.
const (
	ConvStage StageKind = iota
	DenseStage
)

func (k StageKind) String() string {
	if k == DenseStage {
		return "dense"
	}
	return "conv"
}

// PoolSpec describes a non-overlapping average pooling applied to a
// stage's input spikes. Average pooling is linear, so in a spiking
// network it is a fixed 1/K² synapse fanned into the following weighted
// stage rather than a separate neuron layer — this is why the paper's
// VGG-16 latency counts 16 time windows, not 21.
type PoolSpec struct {
	C, InH, InW, K int
}

// OutH returns the pooled height.
func (p PoolSpec) OutH() int { return p.InH / p.K }

// OutW returns the pooled width.
func (p PoolSpec) OutW() int { return p.InW / p.K }

// Stage is one weighted layer of a converted spiking network: an
// optional input average-pool followed by a convolution or dense
// transform. Stage weights are already BatchNorm-folded and
// activation-normalized by internal/convert.
type Stage struct {
	Name string
	Kind StageKind

	// PrePool, when non-nil, is applied to the stage input.
	PrePool *PoolSpec

	// Geom is the convolution geometry after pooling (ConvStage only).
	Geom tensor.ConvGeom
	OutC int

	// W is [OutC, InC, KH, KW] for ConvStage and [In, Out] for
	// DenseStage; B has length OutC / Out.
	W, B *tensor.Tensor

	// InLen and OutLen are the neuron counts entering (before pooling)
	// and leaving the stage.
	InLen, OutLen int

	// Output is true for the final stage, whose membrane potentials are
	// read directly for classification instead of being encoded into
	// spikes.
	Output bool
}

// Net is a converted spiking network: an ordered list of weighted
// stages. The input image itself is "layer 0"; its pixels are encoded
// into spikes by the active coding scheme.
type Net struct {
	Name    string
	InShape []int // [C, H, W]
	InLen   int
	Stages  []Stage
}

// NumNeurons returns the total number of spiking neurons (all stage
// outputs; the output stage is included since its neurons integrate even
// though they do not fire).
func (n *Net) NumNeurons() int {
	total := 0
	for _, s := range n.Stages {
		total += s.OutLen
	}
	return total
}

// Validate checks internal consistency of the stage chain.
func (n *Net) Validate() error {
	if len(n.Stages) == 0 {
		return fmt.Errorf("snn: network has no stages")
	}
	prev := n.InLen
	for i := range n.Stages {
		s := &n.Stages[i]
		if s.InLen != prev {
			return fmt.Errorf("snn: stage %d (%s) InLen %d, previous stage emits %d", i, s.Name, s.InLen, prev)
		}
		in := s.InLen
		if s.PrePool != nil {
			p := s.PrePool
			if p.C*p.InH*p.InW != s.InLen {
				return fmt.Errorf("snn: stage %d (%s) pool covers %d neurons, input has %d", i, s.Name, p.C*p.InH*p.InW, s.InLen)
			}
			if p.InH%p.K != 0 || p.InW%p.K != 0 {
				return fmt.Errorf("snn: stage %d (%s) pool %d does not tile %dx%d", i, s.Name, p.K, p.InH, p.InW)
			}
			in = p.C * p.OutH() * p.OutW()
		}
		switch s.Kind {
		case ConvStage:
			if err := s.Geom.Validate(); err != nil {
				return fmt.Errorf("snn: stage %d (%s): %w", i, s.Name, err)
			}
			if s.Geom.InC*s.Geom.InH*s.Geom.InW != in {
				return fmt.Errorf("snn: stage %d (%s) conv expects %d inputs, has %d", i, s.Name, s.Geom.InC*s.Geom.InH*s.Geom.InW, in)
			}
			if s.OutLen != s.OutC*s.Geom.OutH()*s.Geom.OutW() {
				return fmt.Errorf("snn: stage %d (%s) OutLen %d inconsistent with geometry", i, s.Name, s.OutLen)
			}
		case DenseStage:
			if s.W.Shape[0] != in || s.W.Shape[1] != s.OutLen {
				return fmt.Errorf("snn: stage %d (%s) dense weights %v, want [%d %d]", i, s.Name, s.W.Shape, in, s.OutLen)
			}
		}
		prev = s.OutLen
	}
	if !n.Stages[len(n.Stages)-1].Output {
		return fmt.Errorf("snn: final stage is not marked Output")
	}
	return nil
}

// pool applies the stage's average pooling to a dense input vector,
// returning the input unchanged when there is no pool.
func (s *Stage) pool(in []float64) []float64 {
	p := s.PrePool
	if p == nil {
		return in
	}
	oh, ow := p.OutH(), p.OutW()
	out := make([]float64, p.C*oh*ow)
	inv := 1 / float64(p.K*p.K)
	for c := 0; c < p.C; c++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s2 := 0.0
				for ky := 0; ky < p.K; ky++ {
					row := (c*p.InH+oy*p.K+ky)*p.InW + ox*p.K
					for kx := 0; kx < p.K; kx++ {
						s2 += in[row+kx]
					}
				}
				out[(c*oh+oy)*ow+ox] = s2 * inv
			}
		}
	}
	return out
}

// Forward applies the full stage transform (pool, then conv/dense, plus
// bias) to a dense input vector of decoded values. This is the
// "guaranteed integration" path: it assumes all input spikes have been
// decoded into in.
func (s *Stage) Forward(in []float64) []float64 {
	x := s.pool(in)
	switch s.Kind {
	case ConvStage:
		t := tensor.FromSlice(x, s.Geom.InC, s.Geom.InH, s.Geom.InW)
		out := tensor.Conv2D(t, s.W, s.B, s.Geom)
		return out.Data
	default:
		out := make([]float64, s.OutLen)
		copy(out, s.B.Data)
		for i, v := range x {
			if v == 0 {
				continue
			}
			row := s.W.Data[i*s.OutLen : (i+1)*s.OutLen]
			for j, w := range row {
				out[j] += v * w
			}
		}
		return out
	}
}

// AddBias accumulates the stage bias into potentials once per
// simulation (biases inject constant charge at the start of a window).
func (s *Stage) AddBias(potentials []float64) {
	switch s.Kind {
	case ConvStage:
		oh, ow := s.Geom.OutH(), s.Geom.OutW()
		for c := 0; c < s.OutC; c++ {
			b := s.B.Data[c]
			row := potentials[c*oh*ow : (c+1)*oh*ow]
			for i := range row {
				row[i] += b
			}
		}
	default:
		for j, b := range s.B.Data {
			potentials[j] += b
		}
	}
}

// Scatter accumulates scale × (stage transform of a unit impulse at
// input neuron idx) into potentials. It is the sparse, event-driven
// propagation path used by the clocked simulators: one call per spike.
// The bias is NOT included; see AddBias.
func (s *Stage) Scatter(idx int, scale float64, potentials []float64) {
	s.ScatterVisit(idx, scale, func(j int, contrib float64) {
		potentials[j] += contrib
	})
}

// ScatterVisit is Scatter with an explicit visitor: visit(j, contrib) is
// invoked once per driven synapse with the weighted contribution, in
// the order Scatter accumulates them (kh → kw → oc for convolutions,
// ascending output index for dense stages). No output index repeats
// within one call.
func (s *Stage) ScatterVisit(idx int, scale float64, visit func(j int, contrib float64)) {
	if s.PrePool != nil {
		p := s.PrePool
		c := idx / (p.InH * p.InW)
		rem := idx % (p.InH * p.InW)
		y, x := rem/p.InW, rem%p.InW
		py, px := y/p.K, x/p.K
		pooledIdx := (c*p.OutH()+py)*p.OutW() + px
		s.scatterCore(pooledIdx, scale/float64(p.K*p.K), visit)
		return
	}
	s.scatterCore(idx, scale, visit)
}

// scatterCore scatters an impulse at the (post-pool) input index.
func (s *Stage) scatterCore(idx int, scale float64, visit func(j int, contrib float64)) {
	switch s.Kind {
	case ConvStage:
		g := s.Geom
		c := idx / (g.InH * g.InW)
		rem := idx % (g.InH * g.InW)
		y, x := rem/g.InW, rem%g.InW
		oh, ow := g.OutH(), g.OutW()
		for kh := 0; kh < g.KH; kh++ {
			oyNum := y + g.Pad - kh
			if oyNum < 0 || oyNum%g.Stride != 0 {
				continue
			}
			oy := oyNum / g.Stride
			if oy >= oh {
				continue
			}
			for kw := 0; kw < g.KW; kw++ {
				oxNum := x + g.Pad - kw
				if oxNum < 0 || oxNum%g.Stride != 0 {
					continue
				}
				ox := oxNum / g.Stride
				if ox >= ow {
					continue
				}
				for oc := 0; oc < s.OutC; oc++ {
					w := s.W.Data[((oc*g.InC+c)*g.KH+kh)*g.KW+kw]
					visit((oc*oh+oy)*ow+ox, scale*w)
				}
			}
		}
	default:
		row := s.W.Data[idx*s.OutLen : (idx+1)*s.OutLen]
		for j, w := range row {
			visit(j, scale*w)
		}
	}
}

// FanOut returns the number of synapses a spike at input neuron idx
// drives through this stage — the per-spike accumulation cost used by
// the op-count model (Table III).
func (s *Stage) FanOut(idx int) int {
	if s.PrePool != nil {
		p := s.PrePool
		c := idx / (p.InH * p.InW)
		rem := idx % (p.InH * p.InW)
		y, x := rem/p.InW, rem%p.InW
		idx = (c*p.OutH()+y/p.K)*p.OutW() + x/p.K
	}
	return s.RowLen(idx)
}

// RowLen returns the number of synapses in the scatter row of a RowKey
// (the post-pool input index): exactly how many synapses Scatter drives
// for an input in that row, so plan builders can preallocate rows
// instead of growing them append by append.
func (s *Stage) RowLen(key int) int {
	idx := key
	switch s.Kind {
	case ConvStage:
		g := s.Geom
		rem := idx % (g.InH * g.InW)
		y, x := rem/g.InW, rem%g.InW
		count := 0
		for kh := 0; kh < g.KH; kh++ {
			oyNum := y + g.Pad - kh
			if oyNum < 0 || oyNum%g.Stride != 0 || oyNum/g.Stride >= g.OutH() {
				continue
			}
			for kw := 0; kw < g.KW; kw++ {
				oxNum := x + g.Pad - kw
				if oxNum < 0 || oxNum%g.Stride != 0 || oxNum/g.Stride >= g.OutW() {
					continue
				}
				count += s.OutC
			}
		}
		return count
	default:
		return s.OutLen
	}
}

// RowKey maps a (pre-pool) input index to the key identifying its
// scatter row and the pool divisor applied to the per-spike scale.
// Neurons sharing a pooled cell share the same row, so the engines'
// scatter tables (SoAPlan, and the float engines' tables in
// internal/core) index rows by key rather than by raw input index.
func (s *Stage) RowKey(idx int) (key int, scaleDiv float64) {
	if s.PrePool == nil {
		return idx, 1
	}
	p := s.PrePool
	c := idx / (p.InH * p.InW)
	rem := idx % (p.InH * p.InW)
	y, x := rem/p.InW, rem%p.InW
	return (c*p.OutH()+y/p.K)*p.OutW() + x/p.K, float64(p.K * p.K)
}

// NumRowKeys returns the size of the RowKey space (the post-pool input
// length), for sizing per-row tables.
func (s *Stage) NumRowKeys() int {
	if s.PrePool == nil {
		return s.InLen
	}
	p := s.PrePool
	return p.C * p.OutH() * p.OutW()
}
