package main

import (
	"math"
	"slices"
	"time"
)

// minTail is the number of samples a reported tail percentile must
// leave strictly beyond it: a p90 over 50 samples is a guess, not a
// measurement.
const minTail = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// sorted samples, and how many samples lie strictly beyond it. The
// caller decides whether that tail is long enough to report.
func percentile(sorted []float64, p float64) (value float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// median of unsorted values (copied, not reordered in place).
func median(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := slices.Clone(values)
	slices.Sort(s)
	v, _ := percentile(s, 0.5)
	return v
}

// quartiles returns Q1, median and Q3 with the same convention as
// Python's statistics.quantiles(values, n=4) (the "exclusive" method),
// which is how run-to-run spread is judged.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Exclusive method, line for line: j = i*(n+1)//4 clamped to
		// [1, n-1], then (possibly extrapolating) interpolation.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
