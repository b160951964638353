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

// The compact scatter form must reproduce Stage.Scatter bit for bit over
// random conv and dense geometries: a random spike sequence (with
// repeats, at random scales) accumulated onto random potentials gives the
// same bit patterns. Every row must also drive each output at most once
// (ScatterVisit never repeats an output index) — the invariant that makes
// the order within a row free — and a unit spike must leave exactly the
// row's weights, each at its own output.
func TestStageScatterMatchesScatter(t *testing.T) {
	r := tensor.NewRNG(5)
	for trial := 0; trial < 400; trial++ {
		st := randomScatterStage(r)
		ss := newStageScatter(&st)
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
			for j, w := range row {
				if math.Float64bits(w) != math.Float64bits(want[j]) {
					t.Fatalf("%s: unit spike %d reaches output %d with %v, ScatterVisit %v", tag, idx, j, w, want[j])
				}
			}
		}

		got := make([]float64, st.OutLen)
		for j := range got {
			got[j] = r.Norm()
		}
		want := append([]float64(nil), got...)
		for burst := 0; burst < 5; burst++ {
			idxs := make([]int, r.Intn(2*st.InLen+1))
			for i := range idxs {
				idxs[i] = r.Intn(st.InLen)
			}
			scale := r.Range(0, 2)
			ss.scatter(idxs, scale, got)
			for _, idx := range idxs {
				st.Scatter(idx, scale, want)
			}
		}
		for j := range got {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("%s: output %d = %v, Scatter %v", tag, j, got[j], want[j])
			}
		}
	}
}
