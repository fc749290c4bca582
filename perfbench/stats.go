package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 ≤ q ≤ 1) by linear
// interpolation between the closest ranks, the rule numpy and R use by
// default. It returns 0 for an empty slice and leaves xs unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// mean returns the arithmetic mean, 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0, so that a layer that did
// no work reports 0 rather than NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// tailLadder lists the percentiles a tail is reported at, highest
// first. A fixed ladder keeps the reported percentile the same across
// runs whose sample counts differ a little.
var tailLadder = []float64{99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a tail percentile for
// it to be reported.
const minBeyond = 10

// tailPercentile returns the highest ladder percentile with at least
// minBeyond of n samples beyond it, or 0 when even the median has
// fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		// The epsilon absorbs rounding in 100-p (99.9 is inexact).
		if float64(n)*(100-p)/100+1e-9 >= minBeyond {
			return p
		}
	}
	return 0
}

// tail returns the tail percentile of xs and its value; ok is false
// when there are too few samples for any ladder percentile.
func tail(xs []float64) (pct, value float64, ok bool) {
	pct = tailPercentile(len(xs))
	if pct == 0 {
		return 0, 0, false
	}
	return pct, quantile(xs, pct/100), true
}
