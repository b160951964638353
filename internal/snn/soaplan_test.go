package snn

import (
	"testing"

	"repro/internal/tensor"
)

// pooledConvStage is convStage with an average pool in front, so RowKey
// compression and the pool divisor are exercised.
func pooledConvStage() Stage {
	st := convStage(false)
	st.PrePool = &PoolSpec{C: 2, InH: 8, InW: 8, K: 2}
	st.InLen = 2 * 8 * 8
	return st
}

func TestFixedRoundHalfAwayFromZero(t *testing.T) {
	cases := map[float64]float64{
		0.5: 1, -0.5: -1, 1.5: 2, -1.5: -2, 2.5: 3, -2.5: -3,
		0.49: 0, -0.49: 0, 2: 2, 0: 0,
	}
	for in, want := range cases {
		if got := FixedRound(in); got != want {
			t.Fatalf("FixedRound(%v) = %v, want %v", in, got, want)
		}
	}
}

// synapse is one entry of a scatter row: a spike on the row drives
// output J with weight W (times its scale).
type synapse struct {
	J int32
	W float64
}

// scatterRow collects the synapses of one RowKey's row in the order
// Scatter visits them.
func scatterRow(st *Stage, key int) []synapse {
	var row []synapse
	st.scatterCore(key, 1, func(j int, w float64) {
		row = append(row, synapse{J: int32(j), W: w})
	})
	return row
}

// RowLen must predict exactly how many synapses a row drives for every
// key — it sizes NewSoAPlan and is FanOut's op count.
func TestRowLenMatchesAppendContribs(t *testing.T) {
	for name, st := range map[string]Stage{
		"conv":   convStage(false),
		"pooled": pooledConvStage(),
		"dense":  denseStage(7, 5, true),
	} {
		for key := 0; key < st.NumRowKeys(); key++ {
			row := scatterRow(&st, key)
			if got := st.RowLen(key); got != len(row) {
				t.Fatalf("%s key %d: RowLen = %d, row has %d synapses", name, key, got, len(row))
			}
		}
	}
}

// NewSoAPlan must hold exactly the nonzero-quantized synapses of every
// row, in scatterCore visit order, with weights rounded by FixedRound
// and saturated at ±maxQ.
func TestSoAPlanMatchesScatterRows(t *testing.T) {
	const step = 1.0 / 64
	const maxQ = 127
	for name, st := range map[string]Stage{
		"conv":   convStage(false),
		"pooled": pooledConvStage(),
		"dense":  denseStage(7, 5, true),
	} {
		st := st
		// Force some zero-quantized and some saturating weights.
		st.W.Data[0] = step / 4    // rounds to 0 → dropped
		st.W.Data[1] = -step / 4   // rounds to 0 → dropped
		st.W.Data[2] = 10          // saturates at +maxQ
		st.W.Data[3] = -10         // saturates at −maxQ
		st.W.Data[4] = 1.5 * step  // tie: rounds away from zero → 2
		st.W.Data[5] = -1.5 * step // tie: rounds away from zero → −2

		p := NewSoAPlan(&st, step, maxQ)
		if len(p.Idx) != len(p.Wq) || len(p.Idx) != p.Synapses {
			t.Fatalf("%s: inconsistent SoA lengths: %d idx, %d wq, %d synapses", name, len(p.Idx), len(p.Wq), p.Synapses)
		}
		if p.Off[0] != 0 || int(p.Off[len(p.Off)-1]) != len(p.Idx) {
			t.Fatalf("%s: Off endpoints %d..%d, want 0..%d", name, p.Off[0], p.Off[len(p.Off)-1], len(p.Idx))
		}

		total, inDeg := 0, make(map[int32]int)
		for key := 0; key < st.NumRowKeys(); key++ {
			full := scatterRow(&st, key)
			total += len(full)
			ix, ws := p.Row(key)
			pos := 0
			for _, c := range full {
				q := FixedRound(c.W / step)
				if q > maxQ {
					q = maxQ
				} else if q < -maxQ {
					q = -maxQ
				}
				if q == 0 {
					continue
				}
				if pos >= len(ix) {
					t.Fatalf("%s key %d: SoA row too short", name, key)
				}
				if ix[pos] != c.J || ws[pos] != int8(q) {
					t.Fatalf("%s key %d pos %d: got (%d,%d), want (%d,%d)", name, key, pos, ix[pos], ws[pos], c.J, int(q))
				}
				inDeg[c.J]++
				pos++
			}
			if pos != len(ix) {
				t.Fatalf("%s key %d: SoA row has %d extra synapses", name, key, len(ix)-pos)
			}
		}
		if p.Dropped+p.Synapses != total {
			t.Fatalf("%s: dropped %d + kept %d != total %d", name, p.Dropped, p.Synapses, total)
		}
		if p.Dropped == 0 {
			t.Fatalf("%s: expected some zero-quantized synapses to be dropped", name)
		}
		maxDeg := 0
		for _, d := range inDeg {
			if d > maxDeg {
				maxDeg = d
			}
		}
		if p.MaxInDegree != maxDeg {
			t.Fatalf("%s: MaxInDegree = %d, want %d", name, p.MaxInDegree, maxDeg)
		}
	}
}

// A spike replayed through the SoA plan must match Scatter on the
// dequantized-weight stage: SoA is the int8 mirror of the float path.
func TestSoAPlanScatterMatchesQuantizedScatter(t *testing.T) {
	st := pooledConvStage()
	const step = 1.0 / 32
	const maxQ = 127
	p := NewSoAPlan(&st, step, maxQ)

	// Dequantized twin: same grid, float weights.
	qst := st
	qst.W = st.W.Clone()
	for i, w := range qst.W.Data {
		q := FixedRound(w / step)
		if q > maxQ {
			q = maxQ
		} else if q < -maxQ {
			q = -maxQ
		}
		qst.W.Data[i] = q * step
	}

	r := tensor.NewRNG(7)
	for trial := 0; trial < 20; trial++ {
		idx := r.Intn(st.InLen)
		want := make([]float64, st.OutLen)
		qst.Scatter(idx, 1, want)

		got := make([]float64, st.OutLen)
		key, div := st.RowKey(idx)
		ix, ws := p.Row(key)
		for i, j := range ix {
			got[j] += float64(ws[i]) * step / div
		}
		for j := range want {
			if d := got[j] - want[j]; d > 1e-12 || d < -1e-12 {
				t.Fatalf("trial %d neuron %d: SoA %v, quantized scatter %v", trial, j, got[j], want[j])
			}
		}
	}
}
