package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; NaN for an empty sample. xs is
// not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

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

// Sample is one metric's repeated measurements with their summary. Values
// keeps every repetition so -compare can judge spread, not just medians.
type Sample struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, xs []float64) Sample {
	return Sample{
		Unit:   unit,
		Median: median(xs),
		Min:    quantile(xs, 0),
		Max:    quantile(xs, 1),
		N:      len(xs),
		Values: xs,
	}
}

// spread is the interquartile range as a share of the median — the
// run-to-run noise measure the benchmark contract uses.
func (s Sample) spread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return (quantile(s.Values, 0.75) - quantile(s.Values, 0.25)) / math.Abs(s.Median)
}
