package snn

import "math"

// FixedRound is THE rounding convention for every fixed-point grid in
// this repo: round half away from zero (the math.Round convention, so
// 0.5 → 1 and −0.5 → −1). quant.Format.Quantize and the int8 kernel's
// weight/decode/threshold conversions all route through this one helper;
// if they rounded ties differently the int8 engine would diverge from
// QuantizeNet by one LSB exactly on tie values.
func FixedRound(x float64) float64 { return math.Round(x) }

// SoAPlan is a stage's full scatter table in structure-of-arrays form
// for the fixed-point engine: all rows concatenated into one contiguous
// int32 index slice and one int8 quantized-weight slice, with Off
// marking row boundaries (row of key k is Idx[Off[k]:Off[k+1]]), 5 bytes
// per synapse.
//
// Weights are quantized as wq = clamp(FixedRound(w/Step), ±MaxQ), i.e.
// w ≈ wq·Step. Synapses whose weight quantizes to zero are dropped at
// build time — they can never change an accumulator — so pruned nets
// (quant.PruneNet) shrink the plan instead of multiplying by zero.
//
// A plan is built eagerly and is immutable afterwards: safe for any
// number of concurrent readers with no atomics.
type SoAPlan struct {
	Idx []int32 // target neuron index per synapse
	Wq  []int8  // quantized weight per synapse
	Off []int32 // row boundaries, len NumRowKeys()+1

	Step float64 // grid step: real weight ≈ Wq·Step
	MaxQ int32   // saturation bound applied to Wq

	// Build-time stats: synapses kept, synapses dropped as zero, and the
	// largest in-degree any output neuron receives (bounds worst-case
	// accumulator magnitude for overflow analysis).
	Synapses    int
	Dropped     int
	MaxInDegree int
}

// NewSoAPlan builds the SoA scatter table of a stage on the fixed-point
// grid (step, maxQ). Rows appear in RowKey order and each row replays
// scatterCore's visit order, so replaying a row touches the same
// synapses in the same sequence as Stage.Scatter.
func NewSoAPlan(st *Stage, step float64, maxQ int32) *SoAPlan {
	keys := st.NumRowKeys()
	total := 0
	for k := 0; k < keys; k++ {
		total += st.RowLen(k)
	}
	p := &SoAPlan{
		Idx:  make([]int32, 0, total),
		Wq:   make([]int8, 0, total),
		Off:  make([]int32, keys+1),
		Step: step,
		MaxQ: maxQ,
	}
	inDeg := make([]int32, st.OutLen)
	for k := 0; k < keys; k++ {
		st.scatterCore(k, 1, func(j int, w float64) {
			q := FixedRound(w / step)
			if q > float64(maxQ) {
				q = float64(maxQ)
			} else if q < -float64(maxQ) {
				q = -float64(maxQ)
			}
			if q == 0 {
				p.Dropped++
				return
			}
			p.Idx = append(p.Idx, int32(j))
			p.Wq = append(p.Wq, int8(q))
			inDeg[j]++
		})
		p.Off[k+1] = int32(len(p.Idx))
	}
	p.Synapses = len(p.Idx)
	for _, d := range inDeg {
		if int(d) > p.MaxInDegree {
			p.MaxInDegree = int(d)
		}
	}
	return p
}

// Row returns the index and weight slices of one RowKey's row.
func (p *SoAPlan) Row(key int) ([]int32, []int8) {
	a, b := p.Off[key], p.Off[key+1]
	return p.Idx[a:b], p.Wq[a:b]
}
