package main

import (
	"math"
	"sort"
)

// summary is the five-number summary every end-to-end metric is
// reported with.
type summary struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
}

// summarize returns the summary of v (the zero summary for no values).
func summarize(v []float64) summary {
	if len(v) == 0 {
		return summary{}
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q1, q2, q3 := quartilesSorted(s)
	return summary{N: len(s), Min: s[0], Q1: q1, Median: q2, Q3: q3, Max: s[len(s)-1]}
}

// spread is the interquartile distance as a share of the median, the
// run-to-run noise figure the regression bounds are compared against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

func median(v []float64) float64 { return summarize(v).Median }

// quartilesSorted returns the quartiles of sorted s as Python's
// statistics.quantiles(s, n=4) (the default, exclusive method) gives
// them, so a spread computed here matches one computed from the
// printed values by anyone else. One value is its own quartiles.
func quartilesSorted(s []float64) (q1, q2, q3 float64) {
	m := len(s)
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// quantileSorted returns the nearest-rank q-quantile of sorted latency
// samples (0 for none): the smallest sample with at least q of the
// samples at or below it.
func quantileSorted(s []int64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(s[i])
}
