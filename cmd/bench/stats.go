package main

import (
	"math"
	"sort"
)

// quartiles are the summary printed beside every timing: the median, the
// first and third quartile and the sample count.
type quartiles struct {
	Q1, Median, Q3 float64
	N              int
}

// summarize computes quartiles exactly as Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so the
// spreads printed here are the ones the benchmark's driver computes. A
// single value is its own quartiles.
func summarize(values []float64) quartiles {
	n := len(values)
	switch n {
	case 0:
		return quartiles{}
	case 1:
		return quartiles{Q1: values[0], Median: values[0], Q3: values[0], N: 1}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	at := func(k int) float64 {
		m := n + 1
		j := min(max(k*m/4, 1), n-1)
		delta := k*m - j*4 // beyond [0,4] at the clamped ends: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return quartiles{Q1: at(1), Median: at(2), Q3: at(3), N: n}
}

func median(values []float64) float64 { return summarize(values).Median }

// spread is the inter-quartile range as a share of the median: the noise
// figure a bound is judged against.
func (q quartiles) spread() float64 {
	if q.Median == 0 {
		return 0
	}
	return (q.Q3 - q.Q1) / math.Abs(q.Median)
}

// failureShare is failed operations over attempted ones.
func failureShare(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// worseBy is how much worse cur is than base, as a share of base, for a
// lower-is-better metric; negative when cur is better.
func worseBy(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base
}
