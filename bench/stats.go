package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile.
// Fewer than ten and the percentile is one or two unlucky samples, not
// a property of the workload.
const minTail = 10

// tailPercentile returns the highest whole percentile of n samples that
// still has at least minTail samples beyond it (nearest-rank), or 0 when
// n is too small for any: 100 samples support p90, 1000 support p99.
func tailPercentile(n int) int {
	if n <= minTail {
		return 0
	}
	return 100 * (n - minTail) / n
}

// percentile returns the nearest-rank p-th percentile of xs: the
// smallest sample with at least p% of all samples at or below it. xs is
// not modified; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so the
// spread this harness reports is the one an outside check recomputes
// from the same values. Fewer than two samples have no spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound has to stand above.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
