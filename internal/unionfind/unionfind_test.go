package unionfind

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// sets counts the disjoint sets of d: the elements that are their own
// root.
func sets(d *DSU) int {
	n := 0
	for i := 0; i < len(d.parent); i++ {
		if d.Find(i) == i {
			n++
		}
	}
	return n
}

// same reports whether x and y are in the same set of d.
func same(d *DSU, x, y int) bool { return d.Find(x) == d.Find(y) }

// Naive is a union-find without path compression or union by rank:
// the reference TestAgainstNaive checks DSU against.
type Naive struct {
	parent []int32
}

// NewNaive returns a Naive union-find with n singleton sets.
func NewNaive(n int) *Naive {
	d := &Naive{parent: make([]int32, n)}
	for i := range d.parent {
		d.parent[i] = int32(i)
	}
	return d
}

// Find returns the representative of x without compressing paths.
func (d *Naive) Find(x int) int {
	for d.parent[x] != int32(x) {
		x = int(d.parent[x])
	}
	return x
}

// Union merges the sets containing x and y by pointing y's root at x's root.
func (d *Naive) Union(x, y int) bool {
	rx, ry := d.Find(x), d.Find(y)
	if rx == ry {
		return false
	}
	d.parent[ry] = int32(rx)
	return true
}

func TestNewSingletons(t *testing.T) {
	d := New(5)
	if len(d.parent) != 5 {
		t.Fatalf("Len = %d, want 5", len(d.parent))
	}
	if sets(d) != 5 {
		t.Fatalf("sets = %d, want 5", sets(d))
	}
	for i := 0; i < 5; i++ {
		if got := d.Find(i); got != i {
			t.Errorf("Find(%d) = %d, want %d", i, got, i)
		}
	}
}

func TestResetRestoresSingletons(t *testing.T) {
	d := New(6)
	d.Union(0, 1)
	d.Union(2, 3)
	d.Union(4, 5)

	// Shrink, same size, and grow; each reset must yield singletons
	// with no state leaking from the merged past.
	for _, n := range []int{3, 6, 20} {
		d.Reset(n)
		if len(d.parent) != n || sets(d) != n {
			t.Fatalf("after Reset(%d): Len=%d sets=%d", n, len(d.parent), sets(d))
		}
		for i := 0; i < n; i++ {
			if got := d.Find(i); got != i {
				t.Fatalf("after Reset(%d): Find(%d) = %d", n, i, got)
			}
		}
		d.Union(0, n-1) // dirty it again before the next round
	}

	// A zero DSU must be usable through Reset.
	var z DSU
	z.Reset(4)
	z.Union(1, 2)
	if sets(&z) != 3 || !same(&z, 1, 2) {
		t.Fatal("zero-value DSU not usable after Reset")
	}
}

func TestUnionMergesSets(t *testing.T) {
	d := New(4)
	if !d.Union(0, 1) {
		t.Fatal("Union(0,1) = false, want true")
	}
	if !same(d, 0, 1) {
		t.Error("0 and 1 should be in the same set")
	}
	if same(d, 0, 2) {
		t.Error("0 and 2 should be in different sets")
	}
	if sets(d) != 3 {
		t.Errorf("sets = %d, want 3", sets(d))
	}
}

func TestUnionIdempotent(t *testing.T) {
	d := New(3)
	d.Union(0, 1)
	if d.Union(1, 0) {
		t.Error("second Union(1,0) = true, want false")
	}
	if sets(d) != 2 {
		t.Errorf("sets = %d, want 2", sets(d))
	}
}

func TestTransitivity(t *testing.T) {
	d := New(6)
	d.Union(0, 1)
	d.Union(1, 2)
	d.Union(3, 4)
	if !same(d, 0, 2) {
		t.Error("0 and 2 should be connected transitively")
	}
	if same(d, 2, 3) {
		t.Error("2 and 3 should be disconnected")
	}
	d.Union(2, 3)
	if !same(d, 0, 4) {
		t.Error("after bridging, 0 and 4 should be connected")
	}
	if sets(d) != 2 {
		t.Errorf("sets = %d, want 2 (the big set and {5})", sets(d))
	}
}

func TestAgainstNaive(t *testing.T) {
	const n = 200
	rng := rand.New(rand.NewSource(42))
	d := New(n)
	naive := NewNaive(n)
	for i := 0; i < 500; i++ {
		x, y := rng.Intn(n), rng.Intn(n)
		gotFast := d.Union(x, y)
		gotNaive := naive.Union(x, y)
		if gotFast != gotNaive {
			t.Fatalf("op %d: Union(%d,%d) fast=%v naive=%v", i, x, y, gotFast, gotNaive)
		}
	}
	for i := 0; i < 1000; i++ {
		x, y := rng.Intn(n), rng.Intn(n)
		if (d.Find(x) == d.Find(y)) != (naive.Find(x) == naive.Find(y)) {
			t.Fatalf("connectivity of (%d,%d) disagrees with naive", x, y)
		}
	}
}

func TestQuickUnionFindIsEquivalence(t *testing.T) {
	// Property: after any sequence of unions, Same is reflexive,
	// symmetric, and transitive.
	f := func(pairs []struct{ A, B uint8 }) bool {
		const n = 64
		d := New(n)
		for _, p := range pairs {
			d.Union(int(p.A)%n, int(p.B)%n)
		}
		for i := 0; i < n; i++ {
			if !same(d, i, i) {
				return false
			}
		}
		for i := 0; i < n; i += 7 {
			for j := 0; j < n; j += 5 {
				if same(d, i, j) != same(d, j, i) {
					return false
				}
				for k := 0; k < n; k += 11 {
					if same(d, i, j) && same(d, j, k) && !same(d, i, k) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickCountMatchesComponents(t *testing.T) {
	// Property: n minus the merges Union reports always equals the
	// number of distinct roots.
	f := func(pairs []struct{ A, B uint8 }) bool {
		const n = 48
		d := New(n)
		count := n
		for _, p := range pairs {
			if d.Union(int(p.A)%n, int(p.B)%n) {
				count--
			}
		}
		return sets(d) == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUnionFind(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, n)
	for i := range pairs {
		pairs[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := New(n)
		for _, p := range pairs {
			d.Union(p[0], p[1])
		}
	}
}

func TestGrow(t *testing.T) {
	d := New(2)
	d.Union(0, 1)
	d.Grow(3)
	if len(d.parent) != 5 {
		t.Fatalf("Len = %d after Grow(3), want 5", len(d.parent))
	}
	if sets(d) != 4 {
		t.Fatalf("sets = %d, want 4 ({0,1},{2},{3},{4})", sets(d))
	}
	for i := 2; i < 5; i++ {
		if d.Find(i) != i {
			t.Fatalf("grown element %d not a singleton root", i)
		}
	}
	if !d.Union(1, 4) {
		t.Fatal("union of old and grown element failed")
	}
	if !same(d, 0, 4) {
		t.Fatal("grown element not connected after union")
	}
}
