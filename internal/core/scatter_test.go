package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/snn"
	"repro/internal/tensor"
)

// randomScatterStage builds a stage with random geometry and weights:
// conv (kernel 1–3, stride 1–2, pad 0–1, OutC 1–16) or dense, each with
// or without a 2×2 / 3×3 average pool in front.
func randomScatterStage(r *tensor.RNG) snn.Stage {
	var pool *snn.PoolSpec
	inC, h, w := 1+r.Intn(3), 1+r.Intn(7), 1+r.Intn(7)
	inLen := inC * h * w
	if r.Intn(2) == 0 {
		k := 2 + r.Intn(2)
		pool = &snn.PoolSpec{C: inC, InH: h * k, InW: w * k, K: k}
		inLen = inC * h * w * k * k
	}
	st := snn.Stage{Name: "s", PrePool: pool, InLen: inLen}
	if r.Intn(4) == 0 {
		out := 1 + r.Intn(12)
		st.Kind, st.W, st.B = snn.DenseStage, tensor.New(inC*h*w, out), tensor.New(out)
		st.OutLen = out
	} else {
		g := tensor.ConvGeom{InC: inC, InH: h, InW: w, KH: 1 + r.Intn(3), KW: 1 + r.Intn(3),
			Stride: 1 + r.Intn(2), Pad: r.Intn(2)}
		for g.OutH() <= 0 || g.OutW() <= 0 {
			g.KH, g.KW = 1, 1
		}
		st.Kind, st.Geom, st.OutC = snn.ConvStage, g, 1+r.Intn(16)
		st.W, st.B = tensor.New(st.OutC, inC, g.KH, g.KW), tensor.New(st.OutC)
		st.OutLen = st.OutC * g.OutH() * g.OutW()
	}
	r.FillNormal(st.W, 0, 1)
	return st
}

// toChannelFirst renumbers potentials from a hidden stage's scatter
// layout ([plane][out], channel-last for conv) to Stage.Scatter's
// channel-first one; fromChannelFirst is its inverse.
func toChannelFirst(ss *stageScatter, v []float64) []float64 {
	cf := make([]float64, len(v))
	for p := 0; p < ss.plane; p++ {
		for oc := 0; oc < ss.out; oc++ {
			cf[oc*ss.plane+p] = v[p*ss.out+oc]
		}
	}
	return cf
}

func fromChannelFirst(ss *stageScatter, cf []float64) []float64 {
	v := make([]float64, len(cf))
	for p := 0; p < ss.plane; p++ {
		for oc := 0; oc < ss.out; oc++ {
			v[p*ss.out+oc] = cf[oc*ss.plane+p]
		}
	}
	return v
}

// The compact scatter form must reproduce Stage.Scatter bit for bit over
// random conv and dense geometries, in both layouts: a hidden stage's
// channel-last potentials, permuted back, and the output stage's
// channel-first ones. A random spike sequence (with repeats, at random
// scales) accumulated onto random potentials gives the same bit
// patterns. Every row must also drive each output at most once
// (ScatterVisit never repeats an output index) — the invariant that
// makes the order within a row free — and a unit spike must leave
// exactly the row's weights, each at its own output.
func TestStageScatterMatchesScatter(t *testing.T) {
	eachKernel(t, func() {
		r := tensor.NewRNG(5)
		for trial := 0; trial < 400; trial++ {
			st := randomScatterStage(r)
			ss := newStageScatter(&st)
			outSt := st
			outSt.Output = true
			ssOut := newStageScatter(&outSt)
			tag := fmt.Sprintf("trial %d (%s, pool %v, geom %+v, OutC %d)", trial, st.Kind, st.PrePool != nil, st.Geom, st.OutC)

			for idx := 0; idx < st.InLen; idx++ {
				key, div := st.RowKey(idx)
				if got := ss.key(idx); got != key {
					t.Fatalf("%s: key(%d) = %d, RowKey %d", tag, idx, got, key)
				}
				want := map[int]float64{}
				st.ScatterVisit(idx, div, func(j int, w float64) {
					if _, dup := want[j]; dup {
						t.Fatalf("%s: ScatterVisit(%d) drives output %d twice", tag, idx, j)
					}
					want[j] = w
				})
				if len(want) != st.RowLen(key) {
					t.Fatalf("%s: ScatterVisit(%d) drives %d synapses, RowLen %d", tag, idx, len(want), st.RowLen(key))
				}
				row := make([]float64, st.OutLen)
				ss.scatter([]int{idx}, div, row)
				outRow := make([]float64, st.OutLen)
				ssOut.scatter([]int{idx}, div, outRow)
				for j, w := range toChannelFirst(&ss, row) {
					if math.Float64bits(w) != math.Float64bits(want[j]) || math.Float64bits(outRow[j]) != math.Float64bits(want[j]) {
						t.Fatalf("%s: unit spike %d reaches output %d with %v (hidden) / %v (output), ScatterVisit %v", tag, idx, j, w, outRow[j], want[j])
					}
				}
			}

			want := make([]float64, st.OutLen)
			for j := range want {
				want[j] = r.Norm()
			}
			got := fromChannelFirst(&ss, want)
			gotOut := append([]float64(nil), want...)
			for burst := 0; burst < 5; burst++ {
				idxs := make([]int, r.Intn(2*st.InLen+1))
				for i := range idxs {
					idxs[i] = r.Intn(st.InLen)
				}
				scale := r.Range(0, 2)
				ss.scatter(idxs, scale, got)
				ssOut.scatter(idxs, scale, gotOut)
				for _, idx := range idxs {
					st.Scatter(idx, scale, want)
				}
			}
			for j, g := range toChannelFirst(&ss, got) {
				if math.Float64bits(g) != math.Float64bits(want[j]) || math.Float64bits(gotOut[j]) != math.Float64bits(want[j]) {
					t.Fatalf("%s: output %d = %v (hidden) / %v (output), Scatter %v", tag, j, g, gotOut[j], want[j])
				}
			}
		}
	})
}

// checkTaps must reject a tap table that would let the unchecked AVX
// kernel touch memory outside the potentials or the weight block, and
// newStageScatter must refuse to build one.
func TestCheckTapsRejectsCorruptTable(t *testing.T) {
	r := tensor.NewRNG(9)
	st := randomScatterStage(r)
	for st.Kind != snn.ConvStage {
		st = randomScatterStage(r)
	}
	ss := newStageScatter(&st)
	if err := checkTaps(ss.taps, ss.out, ss.step, ss.outLen, ss.chanLen); err != nil {
		t.Fatalf("valid table rejected: %v", err)
	}
	last := len(ss.taps) - 1
	for _, c := range []struct {
		name string
		tap  convTap
	}{
		{"target past the end", convTap{j: int32(ss.outLen - ss.out + 1)}},
		{"negative target", convTap{j: -1}},
		{"weights past the block", convTap{w: int32(ss.chanLen - ss.out + 1)}},
		{"negative weight offset", convTap{w: -1}},
	} {
		taps := append([]convTap(nil), ss.taps...)
		taps[last] = c.tap
		if err := checkTaps(taps, ss.out, ss.step, ss.outLen, ss.chanLen); err == nil {
			t.Errorf("%s: corrupt tap %+v accepted", c.name, c.tap)
		}
	}

	far := 0 // the furthest tap's lane 0; its last lane is the stage's last potential
	for _, tp := range ss.taps {
		far = max(far, int(tp.j))
	}
	st.OutLen = far + ss.out - 1 // one lane short
	defer func() {
		if recover() == nil {
			t.Error("newStageScatter built a table that overruns its potentials")
		}
	}()
	newStageScatter(&st)
}
