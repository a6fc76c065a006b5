// Package par centralizes the parallelism policy shared by the measure
// kernels (internal/measures) and the correlation indexes
// (internal/correlation): one cutoff below which kernels run on a
// single worker, and one helper that turns an input size into a worker
// count. The partition budget below is also read by the scalar tree
// sweep's counting sort (internal/core). Every kernel is one function that
// calls Workers and returns the same bits for any worker count.
//
// Keeping the policy in one place means every "is this input big
// enough to shard?" decision in the repo agrees, and tuning the
// threshold is a one-line change observed by all of them.
package par

import (
	"runtime"
	"sync/atomic"
)

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

// partitionBytes is the process-wide cache-locality budget: when
// positive, partition-aware kernels bound the bytes of CSR data a
// worker touches per scheduling unit to roughly this many bytes.
// Atomic because cmd/serve sets it once at boot while tests flip it
// around kernels under -race.
var partitionBytes atomic.Int64

// SetPartitionBytes sets the process-wide partition budget in bytes of
// CSR data per partition. Zero (the default) disables partitioning;
// negative values are clamped to zero. Outputs of every kernel are
// bitwise identical for any value — the budget only reshapes the
// traversal order of the scheduling units, never the merge order of
// results.
func SetPartitionBytes(n int) {
	if n < 0 {
		n = 0
	}
	partitionBytes.Store(int64(n))
}

// PartitionBytes returns the current partition budget (0 = disabled).
func PartitionBytes() int {
	return int(partitionBytes.Load())
}

// SpanForBudget converts the partition budget into a claim span over a
// sequence of equal scheduling units that together touch roughly
// totalBytes: the number of consecutive units a worker should process
// per claim so its working set stays within the budget. Returns 0 when
// partitioning is disabled (no budget set, or degenerate inputs) —
// callers fall back to their non-partitioned schedule. The span is a
// locality hint only; callers guarantee bitwise-identical outputs for
// any span.
func SpanForBudget(totalBytes, units int) int {
	b := PartitionBytes()
	if b <= 0 || units <= 0 {
		return 0
	}
	per := totalBytes / units
	if per < 1 {
		per = 1
	}
	span := b / per
	if span < 1 {
		span = 1
	}
	return span
}
