package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-quantile of sorted: the value
// at 1-based rank ⌈p·n⌉. This is the definition serve's /metrics and
// snnload use, so the numbers compare directly. Empty input gives 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quantiles sorts a copy of xs and returns its nearest-rank p50 and p99.
func quantiles(xs []float64) (p50, p99 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	return percentile(s, 0.50), percentile(s, 0.99)
}

// median is the nearest-rank p50 of xs.
func median(xs []float64) float64 {
	p50, _ := quantiles(xs)
	return p50
}

// interval is a half-open time range [lo, hi) in nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of [lo, hi) the union of ivs covers.
// Overlapping intervals (hedged attempts running side by side) count
// once, and the parts of an interval outside [lo, hi) not at all.
func covered(lo, hi int64, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv.lo, lo), min(iv.hi, hi)
		if a < b {
			clipped = append(clipped, interval{a, b})
		}
	}
	slices.SortFunc(clipped, func(x, y interval) int {
		switch {
		case x.lo < y.lo:
			return -1
		case x.lo > y.lo:
			return 1
		}
		return 0
	})
	var total int64
	cur := interval{-1, -1}
	for _, iv := range clipped {
		if iv.lo > cur.hi {
			total += cur.hi - cur.lo
			cur = iv
			continue
		}
		cur.hi = max(cur.hi, iv.hi)
	}
	return total + cur.hi - cur.lo
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(lo, hi int64, children []interval) int64 {
	return hi - lo - covered(lo, hi, children)
}
