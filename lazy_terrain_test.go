package scalarfield

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/graph"
)

// distinctTerrain is a vertex terrain over n vertices with distinct
// random heights, so the super tree has about n nodes.
func distinctTerrain(t testing.TB, seed int64, n int) *Terrain {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for i := 0; i < 2*n; i++ {
		b.AddEdge(rng.Int31n(int32(n)), rng.Int31n(int32(n)))
	}
	values := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64()
	}
	terr, err := NewVertexTerrain(b.Build(), values)
	if err != nil {
		t.Fatal(err)
	}
	return terr
}

// TestNewTerrainFromTreeAllocs gates terrain construction at the same
// allocations, in count and in bytes, for trees of very different
// sizes: it neither lays out the boundaries nor colors the nodes.
func TestNewTerrainFromTreeAllocs(t *testing.T) {
	var counts, sizes [2]float64
	for i, n := range []int{80, 3000} {
		tree := distinctTerrain(t, int64(n), n).Tree
		build := func() {
			if _, err := NewTerrainFromTree(tree); err != nil {
				t.Fatal(err)
			}
		}
		counts[i] = testing.AllocsPerRun(5, build)
		// The fewest bytes of several calls: other goroutines' allocations
		// can only add to one call's count.
		sizes[i] = math.Inf(1)
		for range 10 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			build()
			runtime.ReadMemStats(&after)
			sizes[i] = min(sizes[i], float64(after.TotalAlloc-before.TotalAlloc))
		}
		t.Logf("%d super nodes: %.0f allocs, %.0f bytes", tree.Len(), counts[i], sizes[i])
	}
	if counts[0] != counts[1] || sizes[0] != sizes[1] {
		t.Errorf("NewTerrainFromTree allocations grow with the tree: %v allocs, %v bytes", counts, sizes)
	}
}

// TestDecodedTerrainConcurrentReaders races the geometry's first build:
// a freshly decoded terrain is read from many goroutines at once
// through every path that builds the layout, and each answer must
// equal the one of an eagerly built copy.
func TestDecodedTerrainConcurrentReaders(t *testing.T) {
	rec := randomSnapshotRecord(t, 11, 400, 1200, false, false)
	eager := rec.Terrain
	eager.Layout.Rects()
	const alpha, x, y, size = 3, 0.4, 0.6, 200
	opts := RenderOptions{Width: 96, Height: 72}
	wantPeaks := eager.Peaks(alpha)
	wantNode := eager.Layout.NodeAtPoint(x, y)
	var wantSVG bytes.Buffer
	if err := eager.WriteSVG(&wantSVG, size); err != nil {
		t.Fatal(err)
	}
	wantImg := eager.Render(opts)

	got, err := LoadSnapshot(bytes.NewReader(encodeRecord(t, rec)))
	if err != nil {
		t.Fatal(err)
	}
	lazy := got.Terrain
	const readers = 16
	var wg sync.WaitGroup
	for i := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 4 {
			case 0:
				if p := lazy.Peaks(alpha); !reflect.DeepEqual(p, wantPeaks) {
					t.Errorf("reader %d: Peaks = %+v, want %+v", i, p, wantPeaks)
				}
			case 1:
				if n := lazy.Layout.NodeAtPoint(x, y); n != wantNode {
					t.Errorf("reader %d: NodeAtPoint = %d, want %d", i, n, wantNode)
				}
			case 2:
				var svg bytes.Buffer
				if err := lazy.WriteSVG(&svg, size); err != nil {
					t.Error(err)
				} else if !bytes.Equal(svg.Bytes(), wantSVG.Bytes()) {
					t.Errorf("reader %d: SVG differs from the eager terrain's", i)
				}
			case 3:
				if img := lazy.Render(opts); !reflect.DeepEqual(img, wantImg) {
					t.Errorf("reader %d: rendered image differs from the eager terrain's", i)
				}
			}
		}()
	}
	wg.Wait()
}
