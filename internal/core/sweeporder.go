package core

import "math"

// The sweep order is the one total order every scalar-tree sweep
// visits items in: decreasing scalar, ties broken by increasing item
// ID so the sweep is deterministic. Section II-B makes its sort the
// asymptotic bottleneck of Algorithm 1 — O(|V|·log|V|) against the
// union-find sweep's near-linear O(|E|·α(|V|)) — so it runs in linear
// time for every field: integer fields with a small span take the
// counting sort of countingsort.go, every other field the LSD radix
// sort below. Both are stable over items visited in increasing ID
// order, which realizes the ID tie-break without comparing IDs.
//
// Values must be NaN-free: NaN admits no total order. The field
// constructors (NewVertexField/NewEdgeField) reject NaN before any
// sweep order is computed, which makes the precondition hold on every
// production path.

// SweepOrder returns the item IDs of values in sweep order: decreasing
// value, ties broken by increasing ID. -0 and +0 tie. It is the order
// Algorithms 1 and 3 sweep in, exported so other level-set code can
// rank scalars the same way.
func SweepOrder(values []float64) []int32 {
	var b TreeBuilder
	return b.sweepOrderInto(values)
}

// SweepLevels ranks values by distinct level without sorting them
// all: it returns the distinct values in increasing order, and level,
// where level[i] is the index of values[i] among them. -0 and +0 are
// one level, whose value is that of the lowest-ID item on it.
//
// One pass files every value in an open-addressing table keyed by its
// sweep key (a power of two of at least 2·len(values) slots, linear
// probing), keeping the first (lowest-ID) value of each key; only the
// L distinct values are then put in sweep order. It runs in
// O(len(values) + L) expected time with a constant number of
// allocations. Values must be NaN-free, as for SweepOrder.
func SweepLevels(values []float64) (levels []float64, level []int32) {
	n := len(values)
	bits := 1
	for 1<<bits < 2*n {
		bits++
	}
	// One slab: the table, level, each distinct value's rank, and the
	// sweep order of the distinct values. A table slot holds 1 + the
	// index of its value in distinct, 0 when empty.
	ints := make([]int32, 1<<bits+3*n)
	table, level := ints[:1<<bits], ints[1<<bits:1<<bits+n]
	rank, order := ints[1<<bits+n:1<<bits+2*n], ints[1<<bits+2*n:]
	mask := uint64(1)<<bits - 1
	distinct := make([]float64, 0, n)
	for i, v := range values {
		// Fibonacci hashing: the high bits of the product mix every key
		// bit.
		h := sweepKey(v) * 0x9E3779B97F4A7C15 >> (64 - bits)
		for {
			d := table[h] - 1
			if d < 0 {
				d = int32(len(distinct))
				table[h] = d + 1
				distinct = append(distinct, v)
			} else if distinct[d] != v {
				h = (h + 1) & mask
				continue
			}
			level[i] = d
			break
		}
	}
	// The sweep order lists the distinct values decreasing, so the
	// p-th of them is level L-1-p.
	b := TreeBuilder{order: order}
	levels = make([]float64, len(distinct))
	top := len(distinct) - 1
	for p, d := range b.sweepOrderInto(distinct) {
		levels[top-p] = distinct[d]
		rank[d] = int32(top - p)
	}
	for i, d := range level {
		level[i] = rank[d]
	}
	return levels, level
}

// radixDigitBits is the width of one radix digit: six passes over a
// 64-bit key, each with a 2048-entry histogram (8 KiB) that stays in
// L1. On the scale-2 clustering field this is ~25% faster than eight
// 8-bit passes.
const radixDigitBits = 11

const (
	radixBuckets = 1 << radixDigitBits
	radixDigits  = (64 + radixDigitBits - 1) / radixDigitBits
	radixMask    = radixBuckets - 1
)

// sweepKey maps v to a key whose ascending unsigned order is v's
// descending numeric order. Non-negative floats order like their bit
// patterns and negative floats in reverse, so flipping the 63 low bits
// of a non-negative value and keeping a negative one as is turns
// "greater float" into "smaller key". -0 becomes +0 first, so the two
// tie as they compare equal.
func sweepKey(v float64) uint64 {
	if v == 0 {
		v = 0
	}
	b := math.Float64bits(v)
	return b ^ ((b>>63 - 1) >> 1)
}

// radixSorter holds the scratch of the stable LSD radix sort: the keys
// and a second key/ID pair of buffers to scatter into. The zero value
// is ready; buffers grow on demand, so a pooled sorter stops
// allocating once it has seen the largest field.
type radixSorter struct {
	keys, tmpKeys []uint64
	tmpIDs        []int32
}

// sort fills order (which must have length len(values)) with the sweep
// order of values. One pass computes every key and all six digit
// histograms; each digit then scatters (key, ID) pairs stably by that
// digit, from least to most significant, skipping any digit all keys
// share. Since the input starts in increasing ID order and every pass
// is stable, equal keys end in increasing ID order.
func (r *radixSorter) sort(values []float64, order []int32) {
	n := len(values)
	if n == 0 {
		return
	}
	if cap(r.keys) < n {
		r.keys = make([]uint64, n)
		r.tmpKeys = make([]uint64, n)
		r.tmpIDs = make([]int32, n)
	}
	keys, ids := r.keys[:n], order
	tmpKeys, tmpIDs := r.tmpKeys[:n], r.tmpIDs[:n]

	var counts [radixDigits][radixBuckets]int32
	for i, v := range values {
		k := sweepKey(v)
		keys[i] = k
		ids[i] = int32(i)
		for d := range counts {
			counts[d][(k>>(d*radixDigitBits))&radixMask]++
		}
	}
	for d := range counts {
		shift := d * radixDigitBits
		c := &counts[d]
		if c[(keys[0]>>shift)&radixMask] == int32(n) {
			continue // every key has this digit: the pass is the identity
		}
		pos := int32(0)
		for b, cnt := range c {
			c[b] = pos
			pos += cnt
		}
		for i, k := range keys {
			b := (k >> shift) & radixMask
			p := c[b]
			c[b]++
			tmpKeys[p] = k
			tmpIDs[p] = ids[i]
		}
		keys, tmpKeys = tmpKeys, keys
		ids, tmpIDs = tmpIDs, ids
	}
	if &ids[0] != &order[0] {
		copy(order, ids)
	}
}
