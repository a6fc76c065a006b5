package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	scalarfield "repro"
	"repro/internal/graph"
)

func postBatch(t *testing.T, ts *httptest.Server, body string) (*http.Response, Response) {
	t.Helper()
	resp, err := http.Post(ts.URL, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var out Response
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestBatchMixedOpsFromOneSnapshot is the acceptance criterion: one
// POST answers alpha_cut + peaks + gci, all from a single snapshot.
func TestBatchMixedOpsFromOneSnapshot(t *testing.T) {
	e := testEngine(t, Options{})
	ts := httptest.NewServer(&Handler{Engine: e})
	defer ts.Close()

	resp, out := postBatch(t, ts, `{
		"dataset": "tiny", "measure": "kcore",
		"ops": [
			{"op": "alpha_cut", "alpha": 2},
			{"op": "peaks", "alpha": 2},
			{"op": "gci", "measure_j": "degree"}
		]
	}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	if out.Snapshot.Measure != "kcore" || out.Snapshot.Dataset != "tiny" || out.Snapshot.Seq == 0 {
		t.Fatalf("bad snapshot identity %+v", out.Snapshot)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results for 3 ops", len(out.Results))
	}
	cut, peaks, gci := out.Results[0], out.Results[1], out.Results[2]
	if cut.Error != "" || cut.Count != 2 {
		t.Fatalf("alpha_cut: %+v", cut)
	}
	if peaks.Error != "" || peaks.Count != 2 {
		t.Fatalf("peaks: %+v", peaks)
	}
	if gci.Error != "" || gci.GCI == nil {
		t.Fatalf("gci: %+v", gci)
	}
	// alpha_cut and peaks describe the same cut of the same snapshot.
	for i, p := range peaks.Peaks {
		if p.Items != cut.Components[i].Size {
			t.Fatalf("peak %d has %d items but component has %d — torn snapshot?",
				i, p.Items, cut.Components[i].Size)
		}
	}
	if e.AnalysisCount() != 1 {
		t.Fatalf("one batch ran %d analyses", e.AnalysisCount())
	}
}

func TestBatchDefaultsAndOverrides(t *testing.T) {
	e := testEngine(t, Options{})
	ts := httptest.NewServer(&Handler{
		Engine:   e,
		Defaults: func() Key { return Key{Dataset: "tiny", Measure: "degree", Color: "kcore"} },
	})
	defer ts.Close()

	// Defaults fill everything the request omits.
	resp, out := postBatch(t, ts, `{"ops": [{"op": "spectrum"}]}`)
	if resp.StatusCode != http.StatusOK || out.Snapshot.Measure != "degree" || out.Snapshot.Color != "kcore" {
		t.Fatalf("defaults not applied: %d %+v", resp.StatusCode, out.Snapshot)
	}

	// A request measure overrides; explicit empty color clears the
	// default (pointer semantics).
	resp, out = postBatch(t, ts, `{"measure": "kcore", "color": "", "ops": [{"op": "spectrum"}]}`)
	if resp.StatusCode != http.StatusOK || out.Snapshot.Measure != "kcore" || out.Snapshot.Color != "" {
		t.Fatalf("overrides not applied: %d %+v", resp.StatusCode, out.Snapshot)
	}
}

func TestBatchRequestErrors(t *testing.T) {
	e := testEngine(t, Options{})
	ts := httptest.NewServer(&Handler{Engine: e})
	defer ts.Close()

	// GET is not allowed.
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d, want 405", resp.StatusCode)
	}

	for name, body := range map[string]string{
		"malformed JSON":  `{"ops": [`,
		"empty ops":       `{"dataset": "tiny", "measure": "kcore", "ops": []}`,
		"unknown dataset": `{"dataset": "nope", "measure": "kcore", "ops": [{"op": "spectrum"}]}`,
		"unknown measure": `{"dataset": "tiny", "measure": "nope", "ops": [{"op": "spectrum"}]}`,
		"negative bins":   `{"dataset": "tiny", "measure": "kcore", "bins": -1, "ops": [{"op": "spectrum"}]}`,
		"bins over bound": `{"dataset": "tiny", "measure": "kcore", "bins": 1073741825, "ops": [{"op": "spectrum"}]}`,
		"oversized batch": `{"dataset": "tiny", "measure": "kcore", "ops": [` +
			strings.Repeat(`{"op": "spectrum"},`, MaxOps) + `{"op": "spectrum"}]}`,
	} {
		resp, _ := postBatch(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestBatchMeasureOverrideDropsCrossBasisDefaultColor pins the
// default-merge rule: when a request overrides only the measure, a
// defaulted color on the other basis is dropped (like the viewer's
// sticky preference), not a 400. An explicit cross-basis color is
// still the client's error.
func TestBatchMeasureOverrideDropsCrossBasisDefaultColor(t *testing.T) {
	e := testEngine(t, Options{})
	ts := httptest.NewServer(&Handler{
		Engine:   e,
		Defaults: func() Key { return Key{Dataset: "tiny", Measure: "kcore", Color: "degree"} },
	})
	defer ts.Close()

	resp, out := postBatch(t, ts, `{"measure": "ktruss", "ops": [{"op": "spectrum"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measure-only override with vertex default color: status %d", resp.StatusCode)
	}
	if out.Snapshot.Measure != "ktruss" || out.Snapshot.Color != "" {
		t.Fatalf("cross-basis default color not dropped: %+v", out.Snapshot)
	}

	resp, _ = postBatch(t, ts, `{"measure": "ktruss", "color": "degree", "ops": [{"op": "spectrum"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("explicit cross-basis color: status %d, want 400", resp.StatusCode)
	}
}

// TestServerFaultsAre500 pins the status mapping: request mistakes
// (unknown dataset/measure, basis mismatch) are 400s, but a failing
// loader — a server-side fault unless the loader says otherwise — is
// a 500.
func TestServerFaultsAre500(t *testing.T) {
	e := NewEngine(Options{Loader: func(name string) (*graph.Graph, error) {
		return nil, errors.New("disk on fire")
	}})
	ts := httptest.NewServer(&Handler{Engine: e})
	defer ts.Close()

	resp, _ := postBatch(t, ts, `{"dataset": "x", "measure": "kcore", "ops": [{"op": "spectrum"}]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("loader fault: status %d, want 500", resp.StatusCode)
	}

	// A loader can mark the failure as the client's (bad name) instead.
	e2 := NewEngine(Options{Loader: func(name string) (*graph.Graph, error) {
		return nil, &ClientError{Err: errors.New("no such dataset")}
	}})
	ts2 := httptest.NewServer(&Handler{Engine: e2})
	defer ts2.Close()
	resp, _ = postBatch(t, ts2, `{"dataset": "x", "measure": "kcore", "ops": [{"op": "spectrum"}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("loader ClientError: status %d, want 400", resp.StatusCode)
	}
}

var infMeasureOnce sync.Once

// TestStoredInfTreeAnswers500: ±Inf is legal in a library field, but a
// spectrum over a +Inf scalar has no JSON form; a query that needs it
// answers 500 with a message, from a fresh analysis and from the stored
// snapshot alike, never an empty 200.
func TestStoredInfTreeAnswers500(t *testing.T) {
	infMeasureOnce.Do(func() {
		scalarfield.RegisterMeasure("test-inf", false, "test-only: degree, +Inf on the last vertex",
			func(g *scalarfield.Graph) []float64 {
				vals := make([]float64, g.NumVertices())
				for v := range vals {
					vals[v] = float64(g.Degree(int32(v)))
				}
				vals[len(vals)-1] = math.Inf(1)
				return vals
			})
	})
	dir := t.TempDir()
	for _, stored := range []bool{false, true} {
		store, err := NewDiskStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEngine(Options{Store: store})
		e.RegisterDataset("tiny", testGraph())
		rec := httptest.NewRecorder()
		body := `{"dataset":"tiny","measure":"test-inf","ops":[{"op":"spectrum"}]}`
		(&Handler{Engine: e}).ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader(body)))
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encoding response") {
			t.Fatalf("stored=%v: status %d, body %q; want 500 naming the encoding failure", stored, rec.Code, rec.Body)
		}
		want := int64(1)
		if stored {
			want = 0
		}
		if got := e.AnalysisCount(); got != want {
			t.Fatalf("stored=%v: %d analyses, want %d", stored, got, want)
		}
	}
}
