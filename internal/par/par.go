// Package par centralizes the parallelism policy shared by the measure
// kernels (internal/measures) and the correlation indexes
// (internal/correlation): one cutoff below which kernels run on a
// single worker, and one helper that turns an input size into a worker
// count. Every kernel is one function that calls Workers and returns
// the same bits for any worker count.
//
// Keeping the policy in one place means every "is this input big
// enough to shard?" decision in the repo agrees, and tuning the
// threshold is a one-line change observed by all of them.
package par

import "runtime"

// SerialCutoff is the input size below which kernels run on one
// worker: under ~4k items, goroutine startup and merge overhead
// exceeds the sharded work itself (measured by the worker gating in
// internal/measures).
const SerialCutoff = 4096

// Workers returns the worker count for an input of n items: 1 below
// SerialCutoff, otherwise GOMAXPROCS capped at n.
func Workers(n int) int {
	if n < SerialCutoff {
		return 1
	}
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	return w
}
