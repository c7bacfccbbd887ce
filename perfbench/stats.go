package main

import "sort"

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method, the default of Python's
// statistics.quantiles(xs, n=4), so the spread printed here is the one
// an outside check computes from the same values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	switch len(s) {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, len(s)-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / med
}

// pairWins compares base[i] with next[i] for every i both sides have
// and returns how many pairs next wins, ties counting for neither side.
// lowerBetter says which direction wins.
func pairWins(base, next []float64, lowerBetter bool) (wins, pairs int) {
	pairs = min(len(base), len(next))
	for i := 0; i < pairs; i++ {
		if (lowerBetter && next[i] < base[i]) || (!lowerBetter && next[i] > base[i]) {
			wins++
		}
	}
	return wins, pairs
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
