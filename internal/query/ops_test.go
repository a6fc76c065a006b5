package query

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/datasets"
	"repro/internal/terrain"
)

// opsFixture returns an engine over the GrQc stand-in at the given
// scale with its snapshots of the named measures.
func opsFixture(t *testing.T, scale float64, measures ...string) (*Engine, []*Snapshot) {
	t.Helper()
	g, err := datasets.Generate("GrQc", scale, 42)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Options{})
	e.RegisterDataset("grqc", g)
	var snaps []*Snapshot
	for _, m := range measures {
		snap, err := e.Snapshot(Key{Dataset: "grqc", Measure: m})
		if err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, snap)
	}
	return e, snaps
}

// TestResolveOpAllocs: once warm, a tree op allocates its answer and
// nothing else — one list for mcc and component_of, the components and
// one item buffer for alpha_cut, the peaks for peaks — at every cut
// height and list limit.
func TestResolveOpAllocs(t *testing.T) {
	e, snaps := opsFixture(t, 0.1, "kcore", "ktruss")
	for _, snap := range snaps {
		tree := snap.Terrain.Tree
		lo, hi := tree.Scalar[0], tree.Scalar[0]
		for _, v := range tree.Scalar {
			lo, hi = min(lo, v), max(hi, v)
		}
		var ops []Op
		for _, alpha := range []float64{math.Inf(-1), lo, (lo + hi) / 2, hi, math.Inf(1)} {
			ops = append(ops, Op{Op: OpPeaks, Alpha: alpha})
			for _, limit := range []int{0, -1, 1, 7} {
				ops = append(ops, Op{Op: OpAlphaCut, Alpha: alpha, Limit: limit})
				for _, item := range []int32{0, int32(tree.NumItems() / 2), int32(tree.NumItems() - 1)} {
					ops = append(ops,
						Op{Op: OpComponentOf, Item: item, Alpha: alpha, Limit: limit},
						Op{Op: OpMCC, Item: item, Limit: limit})
				}
			}
		}
		budget := map[string]float64{OpMCC: 1, OpComponentOf: 1, OpAlphaCut: 2, OpPeaks: 1}
		for _, op := range ops {
			if r := e.resolveOp(snap, op); r.Error != "" {
				t.Fatalf("%v %+v: %s", snap.Key, op, r.Error)
			}
			if a := testing.AllocsPerRun(10, func() { e.resolveOp(snap, op) }); a > budget[op.Op] {
				t.Errorf("%v %+v: %.0f allocs, want at most %.0f", snap.Key, op, a, budget[op.Op])
			}
		}
	}
}

// TestFirstPeaksBuildsNoLayout: the first peaks op on a freshly decoded
// snapshot, verified or trusted, reads the tree only: it makes a small
// fraction of the allocations the terrain layout's build makes.
func TestFirstPeaksBuildsNoLayout(t *testing.T) {
	e, snaps := opsFixture(t, 0.5, "clustering")
	store, err := NewDiskStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	op := Op{Op: OpPeaks, Alpha: 0.5}
	for _, snap := range snaps {
		build := mallocs(func() { terrain.NewLayout(snap.Terrain.Tree, terrain.LayoutOptions{}).Rects() })
		if build < 1000 {
			t.Fatalf("%v: a layout build makes only %d allocs; the fixture is too small", snap.Key, build)
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, snap); err != nil {
			t.Fatal(err)
		}
		store.Add(snap.Key, snap)
		decode := map[string]func() *Snapshot{
			"verified": func() *Snapshot {
				dec, err := DecodeSnapshot(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				return dec
			},
			"trusted": func() *Snapshot {
				store.DropOpen()
				dec, ok := store.Get(snap.Key)
				if !ok {
					t.Fatalf("%v: stored snapshot missing", snap.Key)
				}
				return dec
			},
		}
		for name, fresh := range decode {
			// The fewest of several first calls, as other goroutines'
			// allocations can only add to one call's count: one for the
			// answer, one for the tree's SubtreeTop, and a few for its
			// sync.Once.
			first := uint64(math.MaxUint64)
			for range 3 {
				dec := fresh()
				first = min(first, mallocs(func() { e.resolveOp(dec, op) }))
				dec.Release()
			}
			if first > 8 {
				t.Errorf("%v %s: first peaks made %d allocs (a layout build makes %d)", snap.Key, name, first, build)
			}
			t.Logf("%v %s: first peaks made %d allocs, a layout build %d", snap.Key, name, first, build)
		}
	}
}
