package core

import (
	"cmp"
	"iter"
	"math/bits"
	"slices"
)

// The read paths of the viewer and the query API answer with a
// subtree, or a cut's set of subtrees, truncated to a list limit. They
// cost the size of that answer, not the size of the subtree. A subtree
// is one contiguous range of the flat preorder item array: one run of
// ascending members per super node. Its smallest item IDs come from one
// of three paths. A single super node is a prefix of its members. A
// large subtree is collected by a scan of NodeOf in item order that
// stops at the limit-th hit. Any other merges its runs when it has at
// most maxMergeRuns of them, and is otherwise copied and sorted, or
// heap-selected when it holds more than the limit.

// ListLen is the length of the list AppendSubtreeItems appends for a
// subtree of size items: at most limit of them, all when limit < 0.
func ListLen(size int32, limit int) int {
	if limit >= 0 && limit < int(size) {
		return limit
	}
	return int(size)
}

// scansFor reports whether s's subtree takes the NodeOf scan: when
// sorting its range, k·log2 k, would cost at least the n items a full
// scan reads. Disjoint subtrees that scan number at most bits.Len(n),
// since each holds at least n/bits.Len(n) items.
func (st *SuperTree) scansFor(s int32) bool {
	k := int(st.size[s])
	return k*bits.Len(uint(k)) >= len(st.NodeOf)
}

// AppendSubtreeItems appends the min(limit, size) smallest item IDs of
// s's subtree to dst, ascending; limit < 0 means all of them. It costs
// about the answer's size, not the subtree's (see the file comment),
// and allocates only when dst must grow.
func (st *SuperTree) AppendSubtreeItems(dst []int32, s int32, limit int) []int32 {
	return st.AppendComponents(dst, []int32{s}, limit)
}

// AppendComponents appends, for each root in turn, the
// min(limit, size) smallest item IDs of its subtree to dst, ascending;
// limit < 0 means all of them. Root r's items are the next
// ListLen(SubtreeSize()[r], limit) entries of the result, so a caller
// carves the answer by the roots' sizes. The subtrees that take the
// NodeOf scan share one pass, which stops once all of them are full;
// for the disjoint subtrees of a cut (ComponentRoots) that pass is
// never split.
func (st *SuperTree) AppendComponents(dst []int32, roots []int32, limit int) []int32 {
	total := 0
	for _, r := range roots {
		total += ListLen(st.size[r], limit)
	}
	// Grow once: the scans fill views of dst reserved below.
	dst = slices.Grow(dst, total)
	var runs [maxMergeRuns]run
	var scans [32]scanSlot
	pending := 0
	for _, r := range roots {
		m := ListLen(st.size[r], limit)
		switch {
		case m == 0:
		case st.end[r]-st.start[r] == st.size[r]:
			dst = append(dst, st.flat[st.start[r]:st.start[r]+int32(m)]...)
		case st.scansFor(r):
			if pending == len(scans) {
				// Only overlapping roots get here (see scansFor).
				st.scanFill(scans[:pending])
				pending = 0
			}
			lo := len(dst)
			dst = dst[:lo+m]
			scans[pending] = scanSlot{lo: st.start[r], k: st.size[r], out: dst[lo:]}
			pending++
		default:
			var merged bool
			if dst, merged = st.appendMerged(dst, r, m, runs[:]); !merged {
				dst = appendSmallest(dst, st.SubtreeRange(r), m)
			}
		}
	}
	st.scanFill(scans[:pending])
	return dst
}

// scanSlot is one subtree filled by scanFill: the range [lo, lo+k) of
// the flat item array, and the slots still to fill.
type scanSlot struct {
	lo, k int32
	out   []int32
}

// scanFill fills every slot with its subtree's smallest items in one
// pass over NodeOf in item order: super node t lies in a subtree
// exactly when t's own range starts inside the subtree's range. The
// pass stops once every slot is full.
func (st *SuperTree) scanFill(slots []scanSlot) {
	live := len(slots)
	for item, t := range st.NodeOf {
		if live == 0 {
			return
		}
		at := st.start[t]
		for i := 0; i < live; {
			c := &slots[i]
			if uint32(at-c.lo) < uint32(c.k) {
				c.out[0] = int32(item)
				if c.out = c.out[1:]; len(c.out) == 0 {
					live--
					slots[i] = slots[live]
					continue
				}
			}
			i++
		}
	}
}

// maxMergeRuns bounds the member runs appendMerged merges.
const maxMergeRuns = 64

// run is the unread part [at, end) of one super node's members in the
// flat item array.
type run struct{ at, end int32 }

// appendMerged appends the m smallest items of s's subtree (m >= 1)
// ascending by merging its member runs: O(r + m·log r) for r runs, with
// the runs in a min-heap in the caller's scratch. It appends nothing
// and reports false when the subtree has more super nodes than runs
// holds.
func (st *SuperTree) appendMerged(dst []int32, s int32, m int, runs []run) ([]int32, bool) {
	n := 0
	for p, hi := st.start[s], st.start[s]+st.size[s]; p < hi; n++ {
		if n == len(runs) {
			return dst, false
		}
		runs[n] = run{p, st.end[st.NodeOf[st.flat[p]]]}
		p = runs[n].end
	}
	h := runs[:n]
	for i := n/2 - 1; i >= 0; i-- {
		st.siftRun(h, i)
	}
	for range m {
		dst = append(dst, st.flat[h[0].at])
		if h[0].at++; h[0].at == h[0].end {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		st.siftRun(h, 0)
	}
	return dst, true
}

// siftRun restores the min-heap order of h, keyed by each run's next
// item, below i.
func (st *SuperTree) siftRun(h []run, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && st.flat[h[c+1].at] < st.flat[h[c].at] {
			c++
		}
		if st.flat[h[i].at] <= st.flat[h[c].at] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// appendSmallest appends the m smallest entries of r (m >= 1)
// ascending: r copied and sorted when it holds no more than m, and
// otherwise selected through a max-heap of size m built in place in
// dst's tail, so nothing beyond the answer is allocated.
func appendSmallest(dst, r []int32, m int) []int32 {
	lo := len(dst)
	if m >= len(r) {
		dst = append(dst, r...)
		slices.Sort(dst[lo:])
		return dst
	}
	dst = append(dst, r[:m]...)
	h := dst[lo:]
	for i := m/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for _, x := range r[m:] {
		if x < h[0] {
			h[0] = x
			siftDown(h, 0)
		}
	}
	slices.Sort(h)
	return dst
}

// siftDown restores the max-heap order of h below i.
func siftDown(h []int32, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] > h[c] {
			c++
		}
		if h[i] >= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// ComponentRoots yields, in increasing ID order, the super nodes that
// root the maximal α-connected components: nodes with scalar >= α
// whose parent (if any) has scalar < α. This realizes the paper's
// "draw a line at height α" operation on the tree.
func (st *SuperTree) ComponentRoots(alpha float64) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		for s, p := range st.Parent {
			if st.Scalar[s] >= alpha && (p < 0 || st.Scalar[p] < alpha) && !yield(int32(s)) {
				return
			}
		}
	}
}

// SubtreeTop returns the maximum scalar in the subtree rooted at each
// super node, built on the first call: neither the analysis nor a
// snapshot decode pays for it. On a tie between zeros of both signs it
// holds the first one in subtree preorder. Callers must not modify the
// result.
func (st *SuperTree) SubtreeTop() []float64 {
	st.topOnce.Do(func() {
		top := make([]float64, len(st.Parent))
		// Children have larger IDs, so a descending pass sees each
		// node's children done; a strict > over them in ascending order
		// keeps the first maximum in preorder.
		for s := len(top) - 1; s >= 0; s-- {
			top[s] = st.Scalar[s]
			for _, c := range st.Children(int32(s)) {
				if top[c] > top[s] {
					top[s] = top[c]
				}
			}
		}
		st.top = top
	})
	return st.top
}

// PeakInfo is one peakα of a cut: the super node rooting its maximal
// α-connected component, the component's top scalar and its item
// count. The JSON names are those the query API and the viewer serve.
type PeakInfo struct {
	Node   int32   `json:"node"`
	Height float64 `json:"height"`
	Items  int     `json:"items"`
}

// Peaks returns the peakα regions at cut height α, one per maximal
// α-connected component, sorted by descending height then descending
// item count, ties in root order, so the "highest peak" comes first.
// It reads the tree only and makes one allocation once SubtreeTop is
// built; the result is never nil.
func (st *SuperTree) Peaks(alpha float64) []PeakInfo {
	n := 0
	for range st.ComponentRoots(alpha) {
		n++
	}
	peaks := make([]PeakInfo, 0, n)
	top := st.SubtreeTop()
	for s := range st.ComponentRoots(alpha) {
		peaks = append(peaks, PeakInfo{Node: s, Height: top[s], Items: int(st.size[s])})
	}
	slices.SortStableFunc(peaks, func(a, b PeakInfo) int {
		if c := cmp.Compare(b.Height, a.Height); c != 0 {
			return c
		}
		return cmp.Compare(b.Items, a.Items)
	})
	return peaks
}
