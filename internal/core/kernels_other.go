//go:build !amd64

package core

// cpuAVX is false off amd64: the engines run the portable twins.
const cpuAVX = false

func scatterTapsAVX(pot, w []float64, taps []convTap, s float64, n int) {
	scatterTapsGo(pot, w, taps, s, n, 1)
}

func indexGEAVX(pot []float64, theta float64) int {
	return indexGEGo(pot, 0, theta)
}
