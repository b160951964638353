package snn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// convStage builds a small conv stage for direct tests.
func convStage(output bool) Stage {
	g := tensor.ConvGeom{InC: 2, InH: 4, InW: 4, KH: 3, KW: 3, Stride: 1, Pad: 1}
	w := tensor.New(3, 2, 3, 3)
	r := tensor.NewRNG(1)
	r.FillNormal(w, 0, 0.5)
	b := tensor.New(3)
	r.FillNormal(b, 0, 0.1)
	return Stage{
		Name: "conv", Kind: ConvStage, Geom: g, OutC: 3,
		W: w, B: b, InLen: 2 * 4 * 4, OutLen: 3 * 4 * 4, Output: output,
	}
}

func denseStage(in, out int, output bool) Stage {
	w := tensor.New(in, out)
	r := tensor.NewRNG(2)
	r.FillNormal(w, 0, 0.5)
	b := tensor.New(out)
	r.FillNormal(b, 0, 0.1)
	return Stage{Name: "fc", Kind: DenseStage, W: w, B: b, InLen: in, OutLen: out, Output: output}
}

func TestStageKindString(t *testing.T) {
	if ConvStage.String() != "conv" || DenseStage.String() != "dense" {
		t.Fatal("StageKind strings wrong")
	}
}

func TestPoolSpecDims(t *testing.T) {
	p := PoolSpec{C: 4, InH: 8, InW: 6, K: 2}
	if p.OutH() != 4 || p.OutW() != 3 {
		t.Fatalf("pool out dims = %dx%d", p.OutH(), p.OutW())
	}
}

func TestNetValidate(t *testing.T) {
	good := &Net{Name: "g", InShape: []int{2, 4, 4}, InLen: 32,
		Stages: []Stage{convStage(false), denseStage(48, 5, true)}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid net rejected: %v", err)
	}

	for name, breakIt := range map[string]func(*Net){
		"no stages":       func(n *Net) { n.Stages = nil },
		"inlen mismatch":  func(n *Net) { n.Stages[0].InLen = 31 },
		"no output":       func(n *Net) { n.Stages[1].Output = false },
		"dense shape":     func(n *Net) { n.Stages[1].W = tensor.New(48, 6) },
		"pool non-tiling": func(n *Net) { n.Stages[0].PrePool = &PoolSpec{C: 2, InH: 5, InW: 4, K: 2} },
		"pool size":       func(n *Net) { n.Stages[0].PrePool = &PoolSpec{C: 1, InH: 4, InW: 4, K: 2} },
	} {
		n := &Net{Name: "g", InShape: []int{2, 4, 4}, InLen: 32,
			Stages: []Stage{convStage(false), denseStage(48, 5, true)}}
		breakIt(n)
		if err := n.Validate(); err == nil {
			t.Fatalf("%s: invalid net accepted", name)
		}
	}
}

func TestNumNeurons(t *testing.T) {
	n := &Net{InShape: []int{2, 4, 4}, InLen: 32,
		Stages: []Stage{convStage(false), denseStage(48, 5, true)}}
	if got := n.NumNeurons(); got != 48+5 {
		t.Fatalf("NumNeurons = %d, want 53", got)
	}
}

// Scatter summed over a dense input must equal Forward minus bias: the
// central equivalence between the event-driven path and the dense path.
func TestScatterEqualsForwardConv(t *testing.T) {
	st := convStage(false)
	r := tensor.NewRNG(3)
	in := make([]float64, st.InLen)
	for i := range in {
		in[i] = r.Float64()
	}
	want := st.Forward(in)
	got := make([]float64, st.OutLen)
	st.AddBias(got)
	for i, v := range in {
		st.Scatter(i, v, got)
	}
	for j := range want {
		if math.Abs(want[j]-got[j]) > 1e-9 {
			t.Fatalf("scatter sum mismatch at %d: %v vs %v", j, got[j], want[j])
		}
	}
}

func TestScatterEqualsForwardWithPool(t *testing.T) {
	st := convStage(false)
	st.PrePool = &PoolSpec{C: 2, InH: 8, InW: 8, K: 2}
	st.InLen = 2 * 8 * 8
	r := tensor.NewRNG(4)
	in := make([]float64, st.InLen)
	for i := range in {
		in[i] = r.Float64()
	}
	want := st.Forward(in)
	got := make([]float64, st.OutLen)
	st.AddBias(got)
	for i, v := range in {
		st.Scatter(i, v, got)
	}
	for j := range want {
		if math.Abs(want[j]-got[j]) > 1e-9 {
			t.Fatalf("pooled scatter mismatch at %d: %v vs %v", j, got[j], want[j])
		}
	}
}

func TestScatterEqualsForwardDense(t *testing.T) {
	st := denseStage(6, 4, false)
	in := []float64{0.1, 0, 0.5, 0.9, 0, 0.3}
	want := st.Forward(in)
	got := make([]float64, st.OutLen)
	st.AddBias(got)
	for i, v := range in {
		if v != 0 {
			st.Scatter(i, v, got)
		}
	}
	for j := range want {
		if math.Abs(want[j]-got[j]) > 1e-12 {
			t.Fatalf("dense scatter mismatch at %d", j)
		}
	}
}

// Property: FanOut equals the number of potentials actually touched by
// Scatter for any input index.
func TestFanOutMatchesScatterProperty(t *testing.T) {
	st := convStage(false)
	// make all weights 1 so touched outputs are exactly those changed
	st.W.Fill(1)
	st.B.Zero()
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		idx := r.Intn(st.InLen)
		got := make([]float64, st.OutLen)
		st.Scatter(idx, 1, got)
		touched := 0
		for _, v := range got {
			if v != 0 {
				touched++
			}
		}
		return touched == st.FanOut(idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFanOutStrideGeometry(t *testing.T) {
	// centre input of a 3x3/s1/p1 conv feeds 9 positions × OutC
	st := convStage(false)
	centre := 1*4 + 1 // channel 0, (1,1)
	if got := st.FanOut(centre); got != 9*3 {
		t.Fatalf("centre fan-out = %d, want 27", got)
	}
	// corner feeds only 4 positions × OutC
	if got := st.FanOut(0); got != 4*3 {
		t.Fatalf("corner fan-out = %d, want 12", got)
	}
}

func TestSimResultHelpers(t *testing.T) {
	r := SimResult{SpikesPerStage: []int{3, 2}}
	r.CountSpikes()
	if r.TotalSpikes != 5 {
		t.Fatalf("TotalSpikes = %d", r.TotalSpikes)
	}
	pot := []float64{0.1, 0.9, 0.5}
	r.RecordPred(3, pot)
	r.RecordPred(5, pot) // unchanged pred -> no new entry
	pot[2] = 2
	r.RecordPred(9, pot)
	if len(r.Timeline) != 2 {
		t.Fatalf("timeline length = %d, want 2", len(r.Timeline))
	}
	if PredAt(r.Timeline, 2) != -1 || PredAt(r.Timeline, 4) != 1 || PredAt(r.Timeline, 100) != 2 {
		t.Fatalf("PredAt wrong: %d %d %d", PredAt(r.Timeline, 2), PredAt(r.Timeline, 4), PredAt(r.Timeline, 100))
	}
}

func TestArgMaxFirstWins(t *testing.T) {
	if ArgMax([]float64{1, 3, 3}) != 1 {
		t.Fatal("ArgMax should return first maximum")
	}
}
