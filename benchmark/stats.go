package main

import (
	"math"
	"sort"
)

// dist is a sample summarised the way every timing metric is reported:
// median, quartiles and the sample count.
type dist struct {
	Median, Q1, Q3 float64
	N              int
}

// quantile returns the p-quantile of sorted values by the exclusive method
// of Python's statistics.quantiles (position p·(n+1), clamped to the
// sample), so quartiles printed here agree with the ones a reader computes
// from the raw values with the standard library.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := p*float64(n+1) - 1
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(pos)
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func summarize(values []float64) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return dist{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
}

// cv is the coefficient of variation (population standard deviation over
// the mean).
func cv(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	mean := sum / float64(len(values))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, v := range values {
		ss += (v - mean) * (v - mean)
	}
	return math.Sqrt(ss/float64(len(values))) / mean
}
