package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into four
// groups, computed like Python's statistics.quantiles(xs, n=4) with
// its default "exclusive" method, so spreads printed here match the
// ones an outside script computes over the same values. Fewer than
// two samples have no spread: all three quartiles are the lone value
// (NaN for none).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		// Python clamps j and then interpolates with the unclamped
		// position, extrapolating at the ends of short samples.
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range over the median: the steadiness
// figure the benchmark's bounds are set against.
func spread(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	return (q3 - q1) / med
}

// tailPercentiles lists the percentiles a latency report may quote,
// highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest percentile in tailPercentiles that
// leaves at least ten of n samples beyond it, and false when n is too
// small for even the median to qualify. A percentile with fewer
// samples beyond it is one or two outliers, not a tail.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 { // 100-99.9 is not exact

			return p, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// normalize rescales a raw wall-clock timing to the reference host
// state. It takes out the share of busy CPU time the hypervisor stole
// (the vCPU was runnable but not running), then scales by the square
// root of ref0 over refRun, the reference kernel's CPU time in the same
// stretch of the run. The root is measured, not chosen: over ten sets
// of runs the kernel's run-level time moved about twice as much as the
// program's under the same host drift, so dividing by it outright
// over-corrected as often as it helped (NOTES.md). Neither figure moves
// when the program changes.
func normalize(raw, stolen, ref0, refRun float64) float64 {
	return raw * (1 - stolen) * math.Sqrt(ref0/refRun)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
