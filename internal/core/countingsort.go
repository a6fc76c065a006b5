package core

import "math"

// The linear-time sweep-order fast path. Section II-B makes the sort
// the asymptotic bottleneck of Algorithm 1 — O(|V|·log|V|) against the
// union-find sweep's near-linear term — yet most registry measures
// (K-core, K-truss, onion layers, degree, triangle counts) produce
// small non-negative integers. For such fields the decreasing-scalar,
// increasing-ID sweep order is computable by a stable counting sort in
// O(|V| + K), where K is the value span: bucket by integer value,
// emit buckets from the highest value down, and within each bucket
// emit item IDs in their natural increasing order. That is exactly the
// sweep order, so the result is bit-identical to the radix sort of
// sweeporder.go, which takes every other field; on integer fields the
// counting sort is the faster of the two.

// maxCountingValue bounds the magnitude of values eligible for the
// counting path so the int64 bucket arithmetic cannot overflow.
const maxCountingValue = 1 << 31

// minCountingSpan is the bucket-count floor always considered "small
// enough": fields on tiny graphs with modest spans (e.g. degrees of a
// 10-vertex star) still qualify even though span > len(values).
const minCountingSpan = 256

// integerSpan scans values once and reports whether every value is an
// integer within ±maxCountingValue whose overall span (max−min+1) is
// at most max(len(values), minCountingSpan) — the precondition for an
// O(n + K) counting sort with K ≤ O(n) buckets. NaN, ±Inf, fractional
// values, and wide integer ranges all report ok == false.
func integerSpan(values []float64) (lo, span int64, ok bool) {
	if len(values) == 0 {
		return 0, 0, false
	}
	minV, maxV := values[0], values[0]
	for _, v := range values {
		// NaN fails the Trunc comparison; ±Inf fails the bounds.
		if v < -maxCountingValue || v > maxCountingValue || v != math.Trunc(v) {
			return 0, 0, false
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	lo = int64(minV)
	span = int64(maxV) - lo + 1
	limit := int64(len(values))
	if limit < minCountingSpan {
		limit = minCountingSpan
	}
	if span > limit {
		return 0, 0, false
	}
	return lo, span, true
}

// tryCountingOrder fills order (which must have length len(values))
// with the sweep order — decreasing scalar, ties broken by increasing
// ID — via counting sort when integerSpan admits the field, reporting
// whether it did. counts is an optional scratch buffer; the possibly
// grown buffer is returned for reuse, so pooled callers amortize the
// bucket array across builds.
func tryCountingOrder(values []float64, order []int32, counts []int32) ([]int32, bool) {
	lo, span, ok := integerSpan(values)
	if !ok {
		return counts, false
	}
	if int64(cap(counts)) < span {
		counts = make([]int32, span)
	} else {
		counts = counts[:span]
		for i := range counts {
			counts[i] = 0
		}
	}
	for _, v := range values {
		counts[int64(v)-lo]++
	}
	// Turn counts into descending-value bucket offsets: the highest
	// value's bucket starts at position 0.
	pos := int32(0)
	for b := span - 1; b >= 0; b-- {
		c := counts[b]
		counts[b] = pos
		pos += c
	}
	// Placing IDs in increasing order keeps each bucket internally
	// sorted by ID — the sweep order's tie-break.
	for i, v := range values {
		b := int64(v) - lo
		order[counts[b]] = int32(i)
		counts[b]++
	}
	return counts, true
}
