package query

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	scalarfield "repro"
	"repro/internal/graph"
	"repro/internal/oracle"
)

// The Definition 1 oracle: every serving path answers alpha_cut,
// component_of, mcc and peaks with the maximal α-connected components
// of the field, computed by brute force in package oracle (a flood
// fill over the items whose value is at least α), not by another
// implementation of the tree. The paths are the engine's fresh
// analysis, the verified decode of its encoding, the disk store's
// trusted cold hit from the heap and from a mapping, a second engine
// that hydrates the snapshot from the first over the snapshot-exchange
// endpoint, and a batch query that a second node forwards to the first
// and relays, for vertex and edge fields.

// definitionValues is the pool the oracle measures draw from: ties,
// both zeros, both infinities and values a hair apart.
var definitionValues = []float64{
	math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1, 1, 2, -3.5,
	0.25, math.Nextafter(0.25, 1), 3, 3,
}

var definitionOnce sync.Once

// registerDefinitionMeasures registers a vertex and an edge measure
// whose values are drawn from definitionValues by a hash of the item
// and the graph's size, so every random graph gets its own field.
func registerDefinitionMeasures() {
	definitionOnce.Do(func() {
		field := func(items int, salt uint64) []float64 {
			values := make([]float64, items)
			for i := range values {
				x := (uint64(i) + 1) * (salt | 1) * 0x9e3779b97f4a7c15
				x ^= x >> 29
				values[i] = definitionValues[x%uint64(len(definitionValues))]
			}
			return values
		}
		scalarfield.RegisterMeasure("test-def1-vertex", false, "test-only: Definition 1 oracle field",
			func(g *scalarfield.Graph) []float64 {
				return field(g.NumVertices(), uint64(g.NumVertices()*131+g.NumEdges()))
			})
		scalarfield.RegisterMeasure("test-def1-edge", true, "test-only: Definition 1 oracle field",
			func(g *scalarfield.Graph) []float64 {
				return field(g.NumEdges(), uint64(g.NumEdges()*137+g.NumVertices()))
			})
	})
}

// definitionGraph returns a small random graph with isolated vertices,
// usually several connected parts, and at least one edge.
func definitionGraph(rng *rand.Rand) *graph.Graph {
	n := 2 + rng.Intn(14)
	edges := []graph.Edge{{U: 0, V: 1}}
	for m := rng.Intn(2 * n); m > 0; m-- {
		u, v := rng.Int31n(int32(n)), rng.Int31n(int32(n))
		if u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return graph.FromEdges(n, edges)
}

// componentOf returns the component of comps holding item, or nil.
func componentOf(comps [][]int32, item int32) []int32 {
	for _, c := range comps {
		if _, ok := slices.BinarySearch(c, item); ok {
			return c
		}
	}
	return nil
}

// definitionLimits are the item-list limits the oracle asks with: the
// default (200), unlimited, and caps below most component sizes.
var definitionLimits = []int{0, -1, 1, 3}

// smallest returns the limit smallest items of the sorted component c,
// as Op.Limit reads limit.
func smallest(c []int32, limit int) []int32 {
	if limit == 0 {
		limit = 200
	}
	if limit > 0 && limit < len(c) {
		return c[:limit]
	}
	return c
}

// requireDefinitionAnswers has resolve answer alpha_cut, peaks,
// component_of and mcc batches on the field values over g at every α,
// item and definitionLimits entry, and fails on any answer that
// differs from the brute-force components: item lists must be each
// component's limit smallest items, and sizes and counts exact.
func requireDefinitionAnswers(t *testing.T, g *graph.Graph, edge bool, resolve func([]Op) []OpResult, values []float64, alphas []float64, label string) {
	t.Helper()
	for _, alpha := range alphas {
		want := oracle.Components(g, values, edge, alpha)
		ops := []Op{{Op: OpPeaks, Alpha: alpha}}
		for _, limit := range definitionLimits {
			ops = append(ops, Op{Op: OpAlphaCut, Alpha: alpha, Limit: limit})
			for item := range values {
				ops = append(ops, Op{Op: OpComponentOf, Item: int32(item), Alpha: alpha, Limit: limit})
			}
		}
		res := resolve(ops)
		// Peaks: one per component, its height the component's top
		// value and its size the component's, highest then largest first.
		type peak struct {
			top   float64
			items int
		}
		var wantPeaks, gotPeaks []peak
		for _, c := range want {
			top := math.Inf(-1)
			for _, item := range c {
				top = max(top, values[item])
			}
			wantPeaks = append(wantPeaks, peak{top, len(c)})
		}
		byHeight := func(a, b peak) int {
			if c := cmp.Compare(b.top, a.top); c != 0 {
				return c
			}
			return cmp.Compare(b.items, a.items)
		}
		slices.SortStableFunc(wantPeaks, byHeight)
		for _, p := range res[0].Peaks {
			gotPeaks = append(gotPeaks, peak{p.Height, p.Items})
		}
		if !slices.Equal(gotPeaks, wantPeaks) {
			t.Fatalf("%s α=%g: peaks %v, Definition 1 %v", label, alpha, gotPeaks, wantPeaks)
		}
		res = res[1:]
		for _, limit := range definitionLimits {
			cut := res[0]
			if cut.Count != len(want) || len(cut.Components) != len(want) {
				t.Fatalf("%s α=%g limit %d: alpha_cut has %d components, Definition 1 %d",
					label, alpha, limit, cut.Count, len(want))
			}
			for i, c := range cut.Components {
				if c.Size != len(want[i]) || !slices.Equal(c.Items, smallest(want[i], limit)) {
					t.Fatalf("%s α=%g limit %d: alpha_cut component %d is %d items %v, Definition 1 %v",
						label, alpha, limit, i, c.Size, c.Items, want[i])
				}
			}
			for item, r := range res[1 : 1+len(values)] {
				w := componentOf(want, int32(item))
				if r.ItemCount != len(w) || !slices.Equal(r.Items, smallest(w, limit)) {
					t.Fatalf("%s α=%g limit %d: component_of(%d) = %d items %v, Definition 1 %v",
						label, alpha, limit, item, r.ItemCount, r.Items, w)
				}
			}
			res = res[1+len(values):]
		}
	}
	// mcc(item) is the component of item at its own value.
	for _, limit := range definitionLimits {
		ops := make([]Op, len(values))
		for item := range values {
			ops[item] = Op{Op: OpMCC, Item: int32(item), Limit: limit}
		}
		for item, r := range resolve(ops) {
			w := oracle.MCC(g, values, edge, int32(item))
			if r.ItemCount != len(w) || !slices.Equal(r.Items, smallest(w, limit)) {
				t.Fatalf("%s limit %d: mcc(%d) = %d items %v, Definition 1 %v",
					label, limit, item, r.ItemCount, r.Items, w)
			}
		}
	}
}

// TestServingPathsMatchDefinition checks every serving path that
// decodes or builds a tree against Definition 1 by brute force, on
// random small graphs with ties, isolated vertices, ±Inf values and
// disconnected parts, at every level, between levels, and beyond them.
func TestServingPathsMatchDefinition(t *testing.T) {
	registerDefinitionMeasures()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 25; trial++ {
		g := definitionGraph(rng)
		dataset := fmt.Sprintf("def1-%d", trial)
		keys := []Key{{Dataset: dataset, Measure: "test-def1-vertex"}, {Dataset: dataset, Measure: "test-def1-edge"}}
		e := NewEngine(Options{})
		e.RegisterDataset(dataset, g)
		dir := t.TempDir()
		seed, err := NewDiskStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		fresh := map[Key]*Snapshot{}
		for _, key := range keys {
			snap, err := e.Snapshot(key)
			if err != nil {
				t.Fatal(err)
			}
			fresh[key] = snap
			seed.Add(key, snap)
		}
		// Engine h answers from peer e's snapshots, never analyzing.
		peer := snapshotServer(t, e, func(k Key) (*Snapshot, bool) {
			snap, ok := fresh[k]
			return snap, ok
		})
		pf := &PeerFetcher{Self: "h", Peers: func() map[string]string { return map[string]string{"e": peer.URL} }}
		h := NewEngine(Options{Hydrate: pf.Fetch})
		h.RegisterDataset(dataset, g)
		// A receiver whose ring gives every key to e's node forwards to
		// it and relays the owner's answers, never analyzing.
		owner := httptest.NewServer(&Handler{Engine: e})
		t.Cleanup(owner.Close)
		rcv := NewEngine(Options{})
		rcv.RegisterDataset(dataset, g)
		receiver := httptest.NewServer(&Handler{Engine: rcv, Route: func(Key) (string, bool) { return owner.URL, true }})
		t.Cleanup(receiver.Close)
		for _, mmap := range []bool{false, true} {
			// One store per mode, so the second key's cold hit adopts
			// the first key's open graph.
			store, err := NewDiskStoreOptions(dir, DiskStoreOptions{MmapGraphs: mmap})
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range keys {
				snap := fresh[key]
				values := snap.Values
				alphas := []float64{math.Inf(-1), math.Inf(1), 1e300, -1e300}
				for _, v := range values {
					alphas = append(alphas, v, math.Nextafter(v, math.Inf(1)), v+rng.Float64())
				}
				var buf bytes.Buffer
				if err := EncodeSnapshot(&buf, snap); err != nil {
					t.Fatal(err)
				}
				decoded, err := DecodeSnapshot(buf.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				stored, ok := store.Get(key)
				if !ok {
					t.Fatalf("trial %d %v: stored snapshot missing", trial, key)
				}
				paths := map[string]*Snapshot{"stored": stored}
				if !mmap {
					hydrated, err := h.Snapshot(key)
					if err != nil {
						t.Fatal(err)
					}
					paths["engine"], paths["decoded"], paths["hydrated"] = snap, decoded, hydrated
				}
				for name, s := range paths {
					label := fmt.Sprintf("trial %d %s %s mmap=%v", trial, key.Measure, name, mmap)
					resolver := e
					if name == "hydrated" {
						resolver = h
					}
					resolve := func(ops []Op) []OpResult { return resolver.Resolve(s, ops) }
					requireDefinitionAnswers(t, g, s.Edge, resolve, values, alphas, label)
				}
				if !mmap {
					// A request body carries finite alphas only.
					finite := slices.DeleteFunc(slices.Clone(alphas), func(a float64) bool { return math.IsInf(a, 0) })
					resolve := func(ops []Op) []OpResult { return forwardedAnswers(t, receiver.URL, e, snap, ops) }
					requireDefinitionAnswers(t, g, snap.Edge, resolve, values, finite, fmt.Sprintf("trial %d %s forwarded", trial, key.Measure))
				}
				stored.Release()
			}
			store.DropOpen()
		}
		if n := h.AnalysisCount(); n != 0 {
			t.Fatalf("trial %d: the hydrating engine ran %d analyses, want 0", trial, n)
		}
		if n := rcv.AnalysisCount(); n != 0 {
			t.Fatalf("trial %d: the forwarding receiver ran %d analyses, want 0", trial, n)
		}
	}
}

// forwardedAnswers posts ops on snap's key to a receiver that forwards
// them to e's node, requires the relayed body to be the bytes
// encoding/json writes for e's own answer, and returns the relayed
// results. A +Inf peak height has no JSON form: such a batch must
// relay the owner's 500, and the rest of it is asked again without
// the peaks, whose local answer stands in.
func forwardedAnswers(t *testing.T, url string, e *Engine, snap *Snapshot, ops []Op) []OpResult {
	t.Helper()
	local := e.Resolve(snap, ops)
	want, wantErr := jsonResponse(&Response{Snapshot: snap.Info(), Results: local})
	body, err := json.Marshal(Request{Dataset: snap.Key.Dataset, Measure: snap.Key.Measure, Ops: ops})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if wantErr != nil {
		if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(got, []byte(wantErr.Error())) || ops[0].Op != OpPeaks {
			t.Fatalf("forwarded %v: status %d, body %q; want the owner's 500 for %v", ops[0], resp.StatusCode, got, wantErr)
		}
		return append(local[:1:1], forwardedAnswers(t, url, e, snap, ops[1:])...)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("forwarded %v: status %d, relayed\n%s\nowner's own encoding\n%s", ops[0], resp.StatusCode, got, want)
	}
	var out Response
	if err := json.Unmarshal(got, &out); err != nil {
		t.Fatal(err)
	}
	return out.Results
}
