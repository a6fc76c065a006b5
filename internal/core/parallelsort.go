package core

import (
	"slices"
	"sync"

	"repro/internal/par"
)

// sweepCmp is the one encoding of the sweep total order: decreasing
// scalar, ties broken by increasing item ID so the sweep is
// deterministic. Every comparison-sort driver goes through it —
// sortChunk passes it to slices.SortFunc, the merge step uses it via
// sweepLess — and the counting sort of countingsort.go realizes the
// same order bucket-wise, so every driver's output is bit-for-bit
// interchangeable.
//
// Values must be NaN-free: NaN admits no total order, so with it the
// drivers' outputs are unspecified and need not agree. The field
// constructors (NewVertexField/NewEdgeField) reject NaN before any
// sweep order is computed, which makes the precondition hold on every
// production path.
func sweepCmp(values []float64, a, b int32) int {
	va, vb := values[a], values[b]
	switch {
	case va > vb:
		return -1
	case va < vb:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// sweepLess is sweepCmp as a boolean less, for the merge step.
func sweepLess(values []float64, a, b int32) bool {
	return sweepCmp(values, a, b) < 0
}

// parallelSweepOrder computes the sweep order of values, taking the
// linear-time counting sort (countingsort.go) when the field is
// integer-valued with a small span, and a parallel merge sort
// otherwise: the index range is split into GOMAXPROCS shards, each
// shard is sorted independently, and sorted shards are pairwise
// merged. Both paths share the sweepLess total order, so the result is
// bit-for-bit equal to the serial order; fractional inputs below
// par.SerialCutoff take the serial comparison sort directly.
//
// Section II-B's complexity analysis makes the sort the asymptotic
// bottleneck of Algorithm 1 — O(|V|·log|V|) against the union-find
// sweep's near-linear O(|E|·α(|V|)) — so on Table II-scale graphs the
// counting path removes the dominant term outright for the integer
// measures and the parallel sort attacks it for the rest.
// BenchmarkAblationParallelSort and BenchmarkAblationCountingSort
// quantify the gains.
func parallelSweepOrder(values []float64) []int32 {
	order := make([]int32, len(values))
	if _, ok := tryCountingOrder(values, order, nil); ok {
		return order
	}
	for i := range order {
		order[i] = int32(i)
	}
	parallelSortOrder(order, values)
	return order
}

// parallelSortOrder sorts the prefilled order slice by the sweep
// comparator with the sharded merge sort (serial below the worker
// cutoff). It is the comparison-sort backend shared by
// parallelSweepOrder and the pooled TreeBuilder.
func parallelSortOrder(order []int32, values []float64) {
	n := len(order)
	workers := par.Workers(n)
	if workers < 2 {
		sortChunk(order, values)
		return
	}

	// Sort shards in parallel.
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	bounds := make([][2]int, 0, workers)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		bounds = append(bounds, [2]int{lo, hi})
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sortChunk(order[lo:hi], values)
		}(lo, hi)
	}
	wg.Wait()

	// Pairwise merge until one run remains.
	buf := make([]int32, n)
	for len(bounds) > 1 {
		var next [][2]int
		var mwg sync.WaitGroup
		for i := 0; i+1 < len(bounds); i += 2 {
			a, b := bounds[i], bounds[i+1]
			next = append(next, [2]int{a[0], b[1]})
			mwg.Add(1)
			go func(lo, mid, hi int) {
				defer mwg.Done()
				mergeRuns(order, buf, values, lo, mid, hi)
			}(a[0], a[1], b[1])
		}
		if len(bounds)%2 == 1 {
			next = append(next, bounds[len(bounds)-1])
		}
		mwg.Wait()
		bounds = next
	}
}

// sortChunk sorts one shard of the order slice with the sweep
// comparator. slices.SortFunc compares int32 elements directly — no
// sort.Interface boxing and no index-based swap indirection — which
// measurably outpaces the previous sort.Slice closure on the same
// comparator.
func sortChunk(order []int32, values []float64) {
	slices.SortFunc(order, func(a, b int32) int {
		return sweepCmp(values, a, b)
	})
}

// mergeRuns merges the sorted runs order[lo:mid] and order[mid:hi]
// through buf.
func mergeRuns(order, buf []int32, values []float64, lo, mid, hi int) {
	i, j, k := lo, mid, lo
	for i < mid && j < hi {
		a, b := order[i], order[j]
		if sweepLess(values, a, b) {
			buf[k] = a
			i++
		} else {
			buf[k] = b
			j++
		}
		k++
	}
	copy(buf[k:], order[i:mid])
	k += mid - i
	copy(buf[k:], order[j:hi])
	copy(order[lo:hi], buf[lo:hi])
}
