package core

import (
	"math"
	"math/rand/v2"
	"testing"
)

// eachKernel runs body once per kernel path this host can run: the AVX
// kernels when the CPU has them, then the portable Go twins, forced
// through useAVX. The tests that pin the engines' contracts (clocked ≡
// referenceClocked, stageScatter ≡ Stage.Scatter, zero allocations)
// run under it, so the twins are checked on AVX hosts too. A failure
// is logged with the path it happened on.
func eachKernel(t testing.TB, body func()) {
	defer func(saved bool) { useAVX = saved }(useAVX)
	for _, avx := range []bool{true, false} {
		if avx && !cpuAVX {
			continue
		}
		useAVX = avx
		func() {
			defer func() {
				if t.Failed() {
					t.Logf("(on the kernel path with useAVX=%v)", avx)
				}
			}()
			body()
		}()
		if t.Failed() {
			return
		}
	}
}

// kernelValue draws an operand for the kernel comparison: mostly
// normal values, often one of the edge cases a lane can meet — the
// spent −Inf, signed zeros, subnormals, values that overflow a
// product — and, when nan is set, NaN.
func kernelValue(r *rand.Rand, nan bool) float64 {
	switch r.IntN(12) {
	case 0:
		return math.Inf(-1)
	case 1:
		return 0
	case 2:
		return math.Copysign(0, -1)
	case 3:
		return math.SmallestNonzeroFloat64 * float64(r.IntN(1000)-500)
	case 4:
		return math.Float64frombits(r.Uint64() & (1<<52 - 1)) // subnormal, any mantissa
	case 5:
		return 1e300 * r.NormFloat64()
	case 6:
		if nan {
			return math.NaN()
		}
	}
	return r.NormFloat64()
}

// FuzzScatterKernels compares each AVX kernel with its Go twin bit for
// bit: scatterTapsAVX against scatterTapsGo (step 1) on a random tap
// table over lane counts 0–67, so every tail length comes up, and
// indexGEAVX against indexGEGo on random potentials, start indices and
// thresholds. Guard cells around the potentials catch a kernel that
// writes outside the slice it was given.
func FuzzScatterKernels(f *testing.F) {
	if !cpuAVX {
		f.Skip("no AVX on this CPU: the engines run the portable twins only")
	}
	for i := uint64(0); i < 12; i++ {
		f.Add(i, uint8(i*7), uint8(i), float64(i)-5.5)
	}
	f.Add(uint64(99), uint8(67), uint8(3), math.Copysign(0, -1))
	f.Add(uint64(7), uint8(5), uint8(2), -math.SmallestNonzeroFloat64)
	f.Fuzz(func(t *testing.T, seed uint64, lanes, nTaps uint8, scale float64) {
		r := rand.New(rand.NewPCG(seed, uint64(lanes)<<8|uint64(nTaps)))
		n := int(lanes) % 68

		// Scatter: positions·n potentials plus slack, a weight block of
		// a few n, taps anywhere inside both (overlaps included: the
		// taps run in order on both paths).
		outLen := (1+r.IntN(6))*n + r.IntN(3)
		chanLen := (1+r.IntN(4))*n + r.IntN(3)
		w := make([]float64, chanLen)
		for i := range w {
			w[i] = kernelValue(r, false)
		}
		taps := make([]convTap, int(nTaps)%17)
		for i := range taps {
			taps[i] = convTap{j: int32(r.IntN(outLen - n + 1)), w: int32(r.IntN(chanLen - n + 1))}
		}
		if err := checkTaps(taps, n, 1, outLen, chanLen); err != nil {
			t.Fatalf("generator broke the table invariant: %v", err)
		}
		const guard = 4
		base := make([]float64, outLen+2*guard)
		for i := range base {
			base[i] = kernelValue(r, true)
		}
		avx := append([]float64(nil), base...)
		twin := append([]float64(nil), base...)
		scatterTapsAVX(avx[guard:guard+outLen:guard+outLen], w, taps, scale, n)
		scatterTapsGo(twin[guard:guard+outLen:guard+outLen], w, taps, scale, n, 1)
		for i := range base {
			if math.Float64bits(avx[i]) != math.Float64bits(twin[i]) {
				t.Fatalf("scatter n=%d taps=%v s=%v: cell %d (guard %d) = %v (%#x), twin %v (%#x)",
					n, taps, scale, i-guard, guard, avx[i], math.Float64bits(avx[i]), twin[i], math.Float64bits(twin[i]))
			}
		}

		// indexGE: thresholds from the same edge cases, or a value the
		// potentials hold, so equality at the boundary comes up.
		pot := make([]float64, n)
		for i := range pot {
			pot[i] = kernelValue(r, true)
		}
		theta := kernelValue(r, true)
		if n > 0 && r.IntN(2) == 0 {
			theta = pot[r.IntN(n)]
		}
		from := r.IntN(n + 1)
		if got, want := from+indexGEAVX(pot[from:], theta), indexGEGo(pot, from, theta); got != want {
			t.Fatalf("indexGE(%v, from %d, θ %v) = %d, twin %d", pot, from, theta, got, want)
		}
	})
}
