package core

import "fmt"

// The float engines' two hot loops — the scatter of one spike's taps and
// the fire scan for neurons at or above θ — each have a 256-bit AVX
// kernel (kernels_amd64.s) and a portable Go twin here. useAVX picks the
// kernel once at package init from the CPU's features (cpuAVX: AVX,
// OSXSAVE and the OS saving YMM state); there is no option to select
// it. Tests flip useAVX to run the engines on the twins as well.
//
// The kernels give the twins' bits exactly. Each lane of VMULPD and
// VADDPD rounds as MULSD and ADDSD do, no FMA is used, and within one
// spike every tap drives its own outputs, so only the order across
// spikes matters, and both paths keep it.
var useAVX = cpuAVX

// denseTaps is a dense stage's one tap: row key k's weights are the
// "channel" block w[k·out:(k+1)·out], driving outputs 0..out−1.
var denseTaps = []convTap{{}}

// scatterTaps adds s·w[tap.w+k] to pot[tap.j+k·step] for every tap and
// every lane k < n. The AVX kernel reads no bounds: the tap table must
// satisfy checkTaps against len(pot) and len(w), which newStageScatter
// checks once and the callers keep by passing slices of those lengths.
func scatterTaps(pot, w []float64, taps []convTap, s float64, n, step int) {
	if step == 1 && useAVX {
		scatterTapsAVX(pot, w, taps, s, n)
		return
	}
	scatterTapsGo(pot, w, taps, s, n, step)
}

// scatterTapsGo is scatterTaps' portable twin.
func scatterTapsGo(pot, w []float64, taps []convTap, s float64, n, step int) {
	for _, tp := range taps {
		j := int(tp.j)
		for _, w := range w[tp.w:][:n] {
			// The explicit conversion rounds the product before the add.
			// Without it the compiler may fuse the two into one FMA (it
			// does on arm64), which rounds once and breaks bit identity
			// with Stage.Scatter and with the AVX kernel.
			pot[j] += float64(s * w)
			j += step
		}
	}
}

// checkTaps reports whether every tap of a table drives n lanes, step
// apart, inside potentials of length outLen, and reads its n weights
// inside a weight block of length chanLen: the invariant the AVX kernel
// relies on instead of bounds checks.
func checkTaps(taps []convTap, n, step, outLen, chanLen int) error {
	for i, tp := range taps {
		if tp.j < 0 || int(tp.j)+(n-1)*step >= outLen {
			return fmt.Errorf("core: tap %d drives outputs %d..%d of %d", i, tp.j, int(tp.j)+(n-1)*step, outLen)
		}
		if tp.w < 0 || int(tp.w)+n > chanLen {
			return fmt.Errorf("core: tap %d reads weights %d..%d of %d", i, tp.w, int(tp.w)+n-1, chanLen)
		}
	}
	return nil
}

// indexGE returns the first index i ≥ from with pot[i] ≥ theta, or
// len(pot) if there is none. NaN potentials never qualify.
func indexGE(pot []float64, from int, theta float64) int {
	if useAVX {
		return from + indexGEAVX(pot[from:], theta)
	}
	return indexGEGo(pot, from, theta)
}

// indexGEGo is indexGE's portable twin.
func indexGEGo(pot []float64, from int, theta float64) int {
	for j := from; j < len(pot); j++ {
		if pot[j] >= theta {
			return j
		}
	}
	return len(pot)
}

// nextFire is fireSweep's scan: the first neuron j ≥ from whose
// potential passes u ≥ theta and that has not fired, or len(pot). A
// fired float64 neuron holds −Inf, which arrivals leave at −Inf or NaN,
// and θ = θ₀·ε (noisy or not) is never −Inf, so the float scan is
// indexGE alone. An int32 accumulator may wrap from MinInt32 back above
// θ, so the quant scan keeps the outTimes guard.
func nextFire[A float64 | int32](pot []A, from int, theta A, outTimes []int) int {
	if p, ok := any(pot).([]float64); ok {
		return indexGE(p, from, float64(theta))
	}
	for j := from; j < len(pot); j++ {
		if pot[j] >= theta && outTimes[j] < 0 {
			return j
		}
	}
	return len(pot)
}
