package main

import (
	"fmt"
	"sort"
)

// median of s, which must be sorted; 0 when s is empty.
func median(s []float64) float64 {
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

// quartiles returns the first and third quartile of sorted s the way
// Python's statistics.quantiles(s, n=4) computes them (the "exclusive"
// method), so the spreads printed here match the ones a Python script
// computes from the same values. Fewer than two values have no spread.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		m := median(s)
		return m, m
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tail returns the highest percentile of sorted s that has at least ten
// samples beyond it, labelled with its rank and the sample count. With
// ten samples or fewer no percentile qualifies, and the maximum stands in.
func tail(s []float64) (float64, string) {
	n := len(s)
	if n <= 10 {
		return s[n-1], fmt.Sprintf("max n=%d", n)
	}
	i := n - 11
	return s[i], fmt.Sprintf("p%d n=%d", 100*(i+1)/n, n)
}

// sorted returns a sorted copy of s.
func sorted(s []float64) []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}
