package core

import (
	"fmt"

	"repro/internal/snn"
)

// stageScatter is one stage's compact scatter form, the float engines'
// only way to integrate a spike: it replays Stage.Scatter bit for bit
// (same scale/div, same products w·s, same targets) from tables a few
// times the size of the stage's weights, so the hot loop reads weights
// that stay in cache rather than a stored entry per synapse.
//
// A spike's pre-pool input index maps to a row key (the pooled cell, or
// the index itself without a pool). Within one row every output neuron
// receives at most one synapse, for any stride or padding (distinct
// kernel taps of one input position land on distinct output positions),
// so the order of a row's updates is free; only the order across spikes
// matters, and the callers keep it.
//
// The form depends only on the stage weights, which are frozen after
// construction (weight-mutating paths such as fault.PerturbWeights and
// quant.QuantizeNet derive new nets), and never on the kernels, so
// ApplyGO needs no invalidation. It is immutable once built and safe
// for any number of concurrent readers.
type stageScatter struct {
	// keyOf maps a pre-pool input index to its row key; nil when the
	// stage has no pool and the key is the index itself. div is the pool
	// divisor K² applied to the per-spike scale (1 without a pool).
	keyOf []int32
	div   float64

	// Row key k = c·inPlane + p (input channel c, input position p)
	// drives the taps taps[tapOff[p]:tapOff[p+1]] with the weight block
	// w[c·chanLen:(c+1)·chanLen]: tap (j, w) adds s·w[tap.w+k] to
	// pot[tap.j+k·step] for each of the out lanes k. checkTaps holds for
	// every tap against outLen and chanLen.
	//
	// Conv stages hold the weights transposed to [InC][KH][KW][OutC],
	// out = OutC, and one tap per kernel offset (kh, kw) that lands
	// inside the output, so each lane is an output channel. A hidden
	// stage keeps its potentials channel-last, [plane][OutC] with plane
	// = OutH·OutW: a tap's OutC potentials are contiguous (step 1,
	// tap.j = position·OutC), which the AVX kernel needs. The output
	// stage's potentials are Result.Potentials, channel-first (tap.j =
	// position, step = plane).
	//
	// A dense stage is the same form with inPlane 1 and one tap (0, 0):
	// key k's block is its weight row w[k·out:(k+1)·out], out = OutLen,
	// plane 1, step 1.
	w       []float64
	out     int
	outLen  int
	step    int
	inPlane int
	chanLen int
	plane   int
	tapOff  []int32
	taps    []convTap
}

// convTap is one kernel offset (kh, kw) reachable from an input
// position: j is the potential index of its lane 0, w the offset of
// the offset's OutC weights within an input channel's block.
type convTap struct {
	j, w int32
}

// newStageScatter builds the scatter form of one stage. It panics if a
// tap table breaks checkTaps, which would let the AVX kernel write
// outside the potentials.
func newStageScatter(st *snn.Stage) stageScatter {
	ss := stageScatter{div: 1, outLen: st.OutLen, step: 1}
	if p := st.PrePool; p != nil {
		ss.div = float64(p.K * p.K)
		ss.keyOf = make([]int32, st.InLen)
		for idx := range ss.keyOf {
			key, _ := st.RowKey(idx)
			ss.keyOf[idx] = int32(key)
		}
	}
	if st.Kind != snn.ConvStage {
		// One tap (0, 0) over the whole row: checkTaps holds by construction.
		ss.w, ss.out, ss.inPlane, ss.chanLen, ss.plane = st.W.Data, st.OutLen, 1, st.OutLen, 1
		ss.tapOff, ss.taps = []int32{0, 1}, denseTaps
		return ss
	}

	g := st.Geom
	oh, ow := g.OutH(), g.OutW()
	ss.out, ss.inPlane, ss.plane = st.OutC, g.InH*g.InW, oh*ow
	ss.chanLen = g.KH * g.KW * st.OutC
	ss.w = make([]float64, g.InC*ss.chanLen)
	for oc := 0; oc < st.OutC; oc++ {
		for c := 0; c < g.InC; c++ {
			for k := 0; k < g.KH*g.KW; k++ {
				ss.w[c*ss.chanLen+k*st.OutC+oc] = st.W.Data[(oc*g.InC+c)*g.KH*g.KW+k]
			}
		}
	}
	posStride := st.OutC // channel-last: position p's lanes start at p·OutC
	if st.Output {
		posStride, ss.step = 1, ss.plane
	}
	ss.tapOff = make([]int32, ss.inPlane+1)
	for y := 0; y < g.InH; y++ {
		for x := 0; x < g.InW; x++ {
			for kh := 0; kh < g.KH; kh++ {
				oy, ok := convOut(y+g.Pad-kh, g.Stride, oh)
				if !ok {
					continue
				}
				for kw := 0; kw < g.KW; kw++ {
					if ox, ok := convOut(x+g.Pad-kw, g.Stride, ow); ok {
						ss.taps = append(ss.taps, convTap{j: int32((oy*ow + ox) * posStride), w: int32((kh*g.KW + kw) * st.OutC)})
					}
				}
			}
			ss.tapOff[y*g.InW+x+1] = int32(len(ss.taps))
		}
	}
	if err := checkTaps(ss.taps, ss.out, ss.step, ss.outLen, ss.chanLen); err != nil {
		panic(fmt.Sprintf("%v (stage %s)", err, st.Name))
	}
	return ss
}

// convOut maps a padded input offset num = in + pad − k to the output
// coordinate it reaches along one axis, ok=false when the kernel offset
// misses the stride grid or the output (Stage.Scatter's skip rules).
func convOut(num, stride, n int) (int, bool) {
	if num < 0 || num%stride != 0 || num/stride >= n {
		return 0, false
	}
	return num / stride, true
}

// key returns the row key of a pre-pool input index.
func (ss *stageScatter) key(idx int) int {
	if ss.keyOf != nil {
		return int(ss.keyOf[idx])
	}
	return idx
}

// scatter integrates spikes at the pre-pool input indices idxs, in
// order, each with per-spike scale, into pot (in the stage's layout):
// bit-identical to calling st.Scatter(idx, scale, pot) for each idx on
// channel-first potentials.
func (ss *stageScatter) scatter(idxs []int, scale float64, pot []float64) {
	s := scale / ss.div
	pot = pot[:ss.outLen]
	for _, idx := range idxs {
		key := ss.key(idx)
		c := key / ss.inPlane
		pos := key - c*ss.inPlane
		scatterTaps(pot, ss.w[c*ss.chanLen:][:ss.chanLen], ss.taps[ss.tapOff[pos]:ss.tapOff[pos+1]], s, ss.out, ss.step)
	}
}

// addBias adds the stage bias b to hidden potentials laid out
// [plane][out], as Stage.AddBias does to channel-first ones.
func (ss *stageScatter) addBias(pot, b []float64) {
	for p := 0; p < ss.plane; p++ {
		row := pot[p*ss.out:][:ss.out]
		for oc, v := range b {
			row[oc] += v
		}
	}
}

// channelFirst renumbers hidden spike times from the [plane][out]
// layout of src into the channel-first layout of dst.
func (ss *stageScatter) channelFirst(dst, src []int) {
	for p := 0; p < ss.plane; p++ {
		for oc, t := range src[p*ss.out:][:ss.out] {
			dst[oc*ss.plane+p] = t
		}
	}
}

// scatters returns the model's per-stage scatter forms, building all of
// them (and the output stage's early-exit bounds) on first use; models
// are also constructed by composite literal, so the build cannot live in
// NewModel.
func (m *Model) scatters() []stageScatter {
	m.scatterOnce.Do(func() {
		m.scat = make([]stageScatter, len(m.Net.Stages))
		for i := range m.Net.Stages {
			m.scat[i] = newStageScatter(&m.Net.Stages[i])
		}
		// A spike scattered with scale div onto zeroed potentials leaves
		// its row's raw weights (div/div = 1), each at its own output.
		st, out := &m.Net.Stages[len(m.scat)-1], &m.scat[len(m.scat)-1]
		m.outGain = make([]float64, st.NumRowKeys())
		m.outLoss = make([]float64, st.NumRowKeys())
		row := make([]float64, st.OutLen)
		for idx := 0; idx < st.InLen; idx++ {
			key := out.key(idx)
			clear(row)
			out.scatter([]int{idx}, out.div, row)
			for _, w := range row {
				m.outGain[key] = max(m.outGain[key], w)
				m.outLoss[key] = max(m.outLoss[key], -w)
			}
		}
	})
	return m.scat
}
