package terrain

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/measures"
)

// TestLayoutGeometryGolden pins the float64 bits of every boundary of
// three real measure trees under each strategy, so building the
// geometry lazily (or faster) can never move a boundary.
func TestLayoutGeometryGolden(t *testing.T) {
	g, err := datasets.Generate("GrQc", 0.25, 42)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string][3]string{ // binary, squarified, strip
		"kcore": {
			"71f25f7bff4ea131b7f3b919595840569d817e5e53198adafc3e8b6e155b7244",
			"85fb63d6cde30bcb71cb342515e19dc42518778eb716686c57be2323fff1f23e",
			"80ab682ea007702b45955c386623ffa9d8a736988cff71226dea8f04a72914f4",
		},
		"clustering": {
			"4e3335bef8011656ad7ebdcf92ba95008f63a5145281db5e328b43054eb87674",
			"7336712dcda68c336996c80f778204737bdb4962aacd32b6363e0a344627dca7",
			"3d28d735c772178d903729606c260f0689824683674301b02760f56644dfdf3c",
		},
		"ktruss": {
			"031e40814e98dfc61b1fe94730b802ac793ec981bd58c3d2509952063d3441af",
			"4280eafe1199e2c454e97edc5a5f2d584e7b0546155c7955369dc6fecd3e0047",
			"02fd887d63c1516e015dd806da5709a7430dbfc45325e14134661aae1e509bf2",
		},
	}
	for name, want := range golden {
		spec, ok := measures.Lookup(name)
		if !ok {
			t.Fatalf("measure %q not registered", name)
		}
		values := spec.Compute(g)
		var st *core.SuperTree
		if spec.Kind == measures.Edge {
			st = core.EdgeSuperTree(core.MustEdgeField(g, values))
		} else {
			st = core.VertexSuperTree(core.MustVertexField(g, values))
		}
		for strategy, w := range want {
			rects := NewLayout(st, LayoutOptions{Strategy: Strategy(strategy)}).Rects()
			h := sha256.New()
			var b [8]byte
			for _, r := range rects {
				for _, v := range [4]float64{r.X0, r.Y0, r.X1, r.Y1} {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != w {
				t.Errorf("%s, strategy %d: geometry sha256 %s, want %s", name, strategy, got, w)
			}
		}
	}
}
