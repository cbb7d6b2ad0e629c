package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile: below that the "percentile" is a handful of outliers and
// repeats of the same code disagree on it.
const tailSamples = 10

// tailQuantile returns the highest quantile not above want that still
// leaves at least tailSamples samples beyond it in a sample of n, so a
// short run reports (and says it reports) a lower percentile instead of a
// noisy one. With fewer than 2*tailSamples samples it falls back to the
// median.
func tailQuantile(n int, want float64) float64 {
	if n < 2*tailSamples {
		return 0.5
	}
	allowed := 1 - float64(tailSamples)/float64(n)
	if allowed < want {
		return allowed
	}
	return want
}

// quantile is the nearest-rank q-quantile of sorted; 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median interpolates between the two middle values of an even sample, as
// Python's statistics.median does, so numbers compare with the driver's.
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func minMax(v []float64) (lo, hi float64) {
	if len(v) == 0 {
		return 0, 0
	}
	lo, hi = v[0], v[0]
	for _, x := range v[1:] {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return lo, hi
}

// quartileSpread is (Q3 - Q1) / median with the quartiles of Python's
// statistics.quantiles(v, n=4) (the "exclusive" method), the spread the
// driver holds against a metric's bound. With fewer than 4 values the
// quartiles are undefined there, so the full range stands in.
func quartileSpread(v []float64) float64 {
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	s := sortedCopy(v)
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(m)
	}
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= len(s) {
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return (at(0.75) - at(0.25)) / math.Abs(m)
}
