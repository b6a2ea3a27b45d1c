package main

import (
	"math"
	"sort"
	"time"
)

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile as percentile defines it.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// minSamples is the smallest sample count whose p-th percentile has at
// least ten samples beyond it — the rule every reported percentile
// obeys (no run is shorter than its tail percentile needs).
func minSamples(p float64) int {
	n := int(math.Ceil(10/(1-p) - 1e-9))
	for samplesBeyond(n, p) < 10 {
		n++
	}
	return n
}

// rank is the 1-based nearest-rank index of the p-th percentile among n
// sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 1) of
// xs, or 0 when xs is empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// tail is the p-th percentile made steady against disturbances shorter
// than half a run: the samples, in the order taken, are cut into as
// many blocks as still leave each block's percentile ten samples beyond
// it, and the median of the blocks' percentiles is reported. With too
// few samples for two blocks it is the plain percentile.
func tail(xs []float64, p float64) float64 {
	blocks := len(xs) / minSamples(p)
	if blocks < 2 {
		return percentile(xs, p)
	}
	per := make([]float64, blocks)
	for b := range per {
		per[b] = percentile(xs[b*len(xs)/blocks:(b+1)*len(xs)/blocks], p)
	}
	return median(per)
}

// median averages the two middle samples for even n, unlike
// percentile(xs, 0.5): with the handful of repetitions a probe makes,
// the midpoint is the steadier estimate.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeReps calls fn reps times and returns each call's duration in
// milliseconds.
func timeReps(reps int, fn func()) []float64 {
	out := make([]float64, reps)
	for i := range out {
		t0 := time.Now()
		fn()
		out[i] = ms(time.Since(t0))
	}
	return out
}
