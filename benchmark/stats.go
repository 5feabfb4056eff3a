package main

import (
	"math"
	"sort"
)

// percentile is the p-th percentile (0..100) of vs by linear interpolation
// between closest ranks; NaN when vs is empty.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// midmean is the mean of the middle half of vs (of 5 values, the middle 3):
// steadier than the median when the values are quantised, as set-up times are
// by the collector's tick, and still deaf to one outlier on either side.
func midmean(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := len(s) / 4
	return mean(s[cut : len(s)-cut])
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) gives them (the driver's definition of
// spread); with fewer than two values both are the value itself.
func quartiles(vs []float64) (q1, q3 float64) {
	s := finite(vs)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func finite(vs []float64) []float64 {
	out := make([]float64, 0, len(vs))
	for _, v := range vs {
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}
