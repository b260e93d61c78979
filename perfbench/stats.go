package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before the
// benchmark reports it: a tail estimated from fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-th quantile (0 < p < 1) of xs
// and whether at least minBeyond samples lie beyond it. xs need not be
// sorted and is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p * float64(n))) // 1-based rank
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return s[k-1], n-k >= minBeyond
}

// median is the middle value (mean of the two middle ones for even n);
// used for summaries that need no tail guarantee.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// growthExponent fits y = c·x^k by least squares on log-log axes and
// returns k; pairs with a non-positive coordinate are skipped.
func growthExponent(x, y []float64) float64 {
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	if len(lx) < 2 {
		return 0
	}
	mx, my := mean(lx), mean(ly)
	var sxy, sxx float64
	for i := range lx {
		sxy += (lx[i] - mx) * (ly[i] - my)
		sxx += (lx[i] - mx) * (lx[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}
