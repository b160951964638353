package quant_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/quant"
	"repro/internal/snn"
	"repro/internal/tensor"
)

// Regression (PR 8): FormatFor's integer-bit count came from
// ceil(log2(maxAbs + 1e-12)). Max() = 2^i − 2^−f is strictly below 2^i,
// so maxAbs = 2^k needs k+1 integer bits — and once 2^k grew past the
// additive epsilon (k ≥ 12) the estimate stopped being nudged over the
// boundary, silently saturating the largest weight one grid step low.
// Assert coverage for every power of two, and near-boundary neighbours,
// whenever the width can cover the range at all.
func TestFormatForCoversPowersOfTwo(t *testing.T) {
	for _, totalBits := range []int{8, 16, 24} {
		for k := 0; k <= 20; k++ {
			p := math.Exp2(float64(k))
			for _, maxAbs := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1))} {
				f, err := quant.FormatFor(maxAbs, totalBits)
				if err != nil {
					t.Fatal(err)
				}
				// Coverage is only possible when k+1 integer bits fit the
				// width; otherwise saturation is the documented behavior.
				if totalBits-1 < k+1 {
					continue
				}
				if f.Max() < maxAbs {
					t.Fatalf("FormatFor(%v, %d) = %+v: Max %v < maxAbs — saturates the top weight",
						maxAbs, totalBits, f, f.Max())
				}
			}
		}
	}
}

// FormatFor must never waste an integer bit either: one fewer integer
// bit (one more fractional bit) must fail to cover the range.
func TestFormatForIsMinimal(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		totalBits := 4 + r.Intn(21)
		maxAbs := math.Exp2(r.Range(-6, 12))
		fm, err := quant.FormatFor(maxAbs, totalBits)
		if err != nil || fm.Max() < maxAbs && fm.FracBits > 0 {
			return false
		}
		if fm.IntBits == 0 || fm.FracBits < 0 {
			return true
		}
		tighter := quant.Format{IntBits: fm.IntBits - 1, FracBits: fm.FracBits + 1}
		return tighter.Max() < maxAbs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Satellite (PR 8): Format.Quantize and the fixed-point kernel's int
// conversion must round ties identically — both go through
// snn.FixedRound (half away from zero). Pin the convention on exact tie
// values through both paths.
func TestQuantizeTieParityWithFixedRound(t *testing.T) {
	f := quant.Format{IntBits: 2, FracBits: 1} // step 0.5
	step := f.Step()
	ties := []float64{0.25, -0.25, 0.75, -0.75, 1.25, -1.25, 2.75, -2.75}
	wantQ := []float64{0.5, -0.5, 1, -1, 1.5, -1.5, 3, -3}
	for i, v := range ties {
		if got := f.Quantize(v); got != wantQ[i] {
			t.Fatalf("Quantize(%v) = %v, want %v (half away from zero)", v, got, wantQ[i])
		}
		// The kernel-side conversion: grid index via FixedRound, then
		// dequantize — must land on the identical grid point.
		if got := snn.FixedRound(v/step) * step; got != wantQ[i] {
			t.Fatalf("FixedRound path: %v -> %v, want %v", v, got, wantQ[i])
		}
	}
}

// The int8 SoA plan's weights must be Format.Quantize in integer form:
// wq·step == Quantize(w) bit for bit, including ties and saturation.
func TestSoAPlanWeightsMatchQuantize(t *testing.T) {
	f := quant.Format{IntBits: 0, FracBits: 7}
	step, maxQ := f.Step(), f.MaxQ()
	in, out := 6, 5
	w := tensor.New(in, out)
	r := tensor.NewRNG(11)
	for i := range w.Data {
		switch i % 4 {
		case 0: // exact tie values
			w.Data[i] = (float64(i/4) + 0.5) * step
		case 1:
			w.Data[i] = -(float64(i/4) + 0.5) * step
		case 2: // out of range → saturation
			w.Data[i] = r.Range(1, 3)
		default:
			w.Data[i] = r.Range(-1, 1)
		}
	}
	st := snn.Stage{Name: "fc", Kind: snn.DenseStage, W: w, B: tensor.New(out),
		InLen: in, OutLen: out, Output: true}
	p := snn.NewSoAPlan(&st, step, maxQ)

	for key := 0; key < st.NumRowKeys(); key++ {
		ix, ws := p.Row(key)
		pos := 0
		// The stage has no pool, so key is the input index and a unit
		// scale visits the raw weights.
		st.ScatterVisit(key, 1, func(j int, w float64) {
			want := f.Quantize(w)
			if want == 0 {
				return // dropped from the plan
			}
			if pos >= len(ix) || int(ix[pos]) != j {
				t.Fatalf("key %d: plan misses synapse -> %d", key, j)
			}
			if got := float64(ws[pos]) * step; got != want {
				t.Fatalf("key %d synapse %d: plan weight %v, Quantize %v", key, j, got, want)
			}
			pos++
		})
	}
}

// Property (PR 8): quantization is a projection — requantizing an
// already-quantized tensor is bit-exact identity, and every quantized
// value decomposes exactly as gridIndex·step with |gridIndex| ≤ MaxQ.
func TestQuantizeRoundTripIdempotent(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		fm := quant.Format{IntBits: r.Intn(3), FracBits: 1 + r.Intn(7)}
		w := tensor.New(4, 5)
		for i := range w.Data {
			w.Data[i] = r.Range(-3, 3)
		}
		q := quant.QuantizeTensor(w, fm)
		q2 := quant.QuantizeTensor(q, fm)
		step, maxQ := fm.Step(), fm.MaxQ()
		for i := range q.Data {
			if q2.Data[i] != q.Data[i] {
				return false // not idempotent
			}
			g := snn.FixedRound(q.Data[i] / step)
			if g > float64(maxQ) || g < -float64(maxQ) {
				return false // off the int grid
			}
			if g*step != q.Data[i] {
				return false // not an exact multiple of step
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
