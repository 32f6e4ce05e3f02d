package main

import "sort"

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the middle two for
// an even count), or 0 for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), so that spreads computed here match ones computed with
// Python. It needs at least two values.
func quartiles(xs []float64) (q [3]float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return q, false
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q, true
}

// tailPermille lists the candidate tail percentiles, in tenths of a
// percent, highest first.
var tailPermille = []int{999, 990, 950, 900, 750}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, using nearest-rank: the p-th percentile is
// the ceil(p·n)-th smallest sample and the n − rank samples above it are
// "beyond". ok is false when even p75 leaves fewer than ten, in which
// case only the median should be reported.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	n := len(xs)
	s := sorted(xs)
	for _, pm := range tailPermille {
		rank := (pm*n + 999) / 1000
		if rank < 1 || n-rank < 10 {
			continue
		}
		return float64(pm) / 10, s[rank-1], true
	}
	return 0, 0, false
}
