package main

import (
	"encoding/json"
	"image/png"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testServer(t *testing.T, measure, colorBy string) *httptest.Server {
	t.Helper()
	srv, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: measure, colorBy: colorBy})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// measureInfo mirrors the /measure response shape.
type measureInfo struct {
	Dataset          string   `json:"dataset"`
	Measure          string   `json:"measure"`
	Edge             bool     `json:"edge"`
	SuperNodes       int      `json:"superNodes"`
	Available        []string `json:"available"`
	Datasets         []string `json:"datasets"`
	Pending          bool     `json:"pending"`
	RequestedDataset string   `json:"requestedDataset"`
	RequestedMeasure string   `json:"requestedMeasure"`
}

func getMeasureInfo(t *testing.T, url string) measureInfo {
	t.Helper()
	resp := get(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s status %d", url, resp.StatusCode)
	}
	var info measureInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

// waitSettled polls /measure until no background analysis is pending —
// a switch on a cache miss answers from the stale snapshot immediately
// and swaps when the background run lands.
func waitSettled(t *testing.T, ts *httptest.Server) measureInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info := getMeasureInfo(t, ts.URL+"/measure")
		if !info.Pending {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("selection still pending after 30s: %+v", info)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestIndexServesHTML(t *testing.T) {
	ts := testServer(t, "kcore", "degree")
	resp := get(t, ts.URL+"/")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("index content type %q", ct)
	}
}

func TestIndexUnknownPath404(t *testing.T) {
	ts := testServer(t, "kcore", "")
	if resp := get(t, ts.URL+"/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path status %d, want 404", resp.StatusCode)
	}
}

func TestTerrainAndTreemapArePNG(t *testing.T) {
	ts := testServer(t, "kcore", "")
	for _, path := range []string{
		"/terrain.png?angle=1.1&zoom=2&w=320&h=240",
		"/treemap.png?size=200",
	} {
		resp := get(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if _, err := png.Decode(resp.Body); err != nil {
			t.Fatalf("%s is not a decodable PNG: %v", path, err)
		}
	}
}

// TestImageSizesAreClamped: client-chosen image sizes size the raster
// allocation, so oversize and negative values are clamped into each
// view's bounds instead of allocating what the client asked for.
func TestImageSizesAreClamped(t *testing.T) {
	ts := testServer(t, "kcore", "")
	for _, tc := range []struct {
		path   string
		lo, hi int
	}{
		// One dimension oversize, one negative: each clamps to its own
		// end of the range without rendering a 2048² raster.
		{"/terrain.png?w=100000&h=-1", 64, 2048},
		{"/terrain.png?w=-5&h=100000", 64, 2048},
		{"/linked.png?x=0.5&y=0.5&size=100000", 64, 1024},
		{"/linked.png?x=0.5&y=0.5&size=-7", 64, 1024},
		{"/treemap.png?size=100000", 64, 1024},
		{"/treemap.png?size=-7", 64, 1024},
	} {
		resp := get(t, ts.URL+tc.path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", tc.path, resp.StatusCode)
		}
		cfg, err := png.DecodeConfig(resp.Body)
		if err != nil {
			t.Fatalf("%s is not a PNG: %v", tc.path, err)
		}
		for _, d := range []int{cfg.Width, cfg.Height} {
			if d < tc.lo || d > tc.hi {
				t.Errorf("%s: image %dx%d outside [%d, %d]", tc.path, cfg.Width, cfg.Height, tc.lo, tc.hi)
			}
		}
	}
}

func TestPeaksJSON(t *testing.T) {
	ts := testServer(t, "kcore", "")
	resp := get(t, ts.URL+"/peaks?alpha=2")
	var out struct {
		Alpha float64 `json:"alpha"`
		Peaks []struct {
			Node   int32   `json:"node"`
			Height float64 `json:"height"`
			Items  int     `json:"items"`
		} `json:"peaks"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Alpha != 2 {
		t.Fatalf("alpha echoed as %g", out.Alpha)
	}
	if len(out.Peaks) == 0 {
		t.Fatal("no peaks at α=2 on a GrQc-style graph")
	}
	for _, p := range out.Peaks {
		if p.Height < 2 || p.Items < 1 {
			t.Fatalf("implausible peak %+v", p)
		}
	}
}

// TestNonFiniteParamsFallBackToDefaults: inf and NaN are malformed
// input like any unparsable number, so each handler answers with the
// parameter's default instead of failing to encode it.
func TestNonFiniteParamsFallBackToDefaults(t *testing.T) {
	ts := testServer(t, "kcore", "")
	for _, v := range []string{"inf", "-Inf", "NaN"} {
		resp := get(t, ts.URL+"/peaks?alpha="+v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("peaks?alpha=%s status %d", v, resp.StatusCode)
		}
		var out struct {
			Alpha float64 `json:"alpha"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Alpha != 0 {
			t.Fatalf("peaks?alpha=%s echoed alpha %g (%v), want the default 0", v, out.Alpha, err)
		}

		for _, q := range []string{"x=" + v + "&y=0.5", "x=0.5&y=" + v} {
			if resp := get(t, ts.URL+"/select?"+q); resp.StatusCode != http.StatusNotFound {
				t.Fatalf("select?%s status %d, want 404 (no point selected)", q, resp.StatusCode)
			}
		}

		path := "/terrain.png?w=64&h=64&angle=" + v + "&zoom=" + v
		resp = get(t, ts.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
		if _, err := png.Decode(resp.Body); err != nil {
			t.Fatalf("%s is not a decodable PNG: %v", path, err)
		}
	}
}

func TestSelectAndLinkedView(t *testing.T) {
	ts := testServer(t, "kcore", "")
	resp := get(t, ts.URL+"/select?x=0.5&y=0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("select status %d", resp.StatusCode)
	}
	var sel struct {
		Node      int32   `json:"node"`
		Scalar    float64 `json:"scalar"`
		ItemCount int     `json:"itemCount"`
		Items     []int32 `json:"items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sel); err != nil {
		t.Fatal(err)
	}
	if sel.ItemCount < 1 || len(sel.Items) < 1 {
		t.Fatalf("empty selection %+v", sel)
	}

	img := get(t, ts.URL+"/linked.png?x=0.5&y=0.5")
	if img.StatusCode != http.StatusOK {
		t.Fatalf("linked status %d", img.StatusCode)
	}
	if _, err := png.Decode(img.Body); err != nil {
		t.Fatalf("linked view not a PNG: %v", err)
	}
}

func TestSelectOutOfRange404(t *testing.T) {
	ts := testServer(t, "kcore", "")
	for _, q := range []string{"?x=2&y=0.5", "?x=0.5&y=-1", ""} {
		if resp := get(t, ts.URL+"/select"+q); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("select%s status %d, want 404", q, resp.StatusCode)
		}
	}
}

func TestSpectrumJSON(t *testing.T) {
	ts := testServer(t, "kcore", "")
	resp := get(t, ts.URL+"/spectrum")
	var sp struct {
		Levels     []float64 `json:"Levels"`
		Components []int     `json:"Components"`
		Items      []int     `json:"Items"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Levels) == 0 || len(sp.Levels) != len(sp.Components) || len(sp.Levels) != len(sp.Items) {
		t.Fatalf("inconsistent spectrum: %d levels, %d comps, %d items",
			len(sp.Levels), len(sp.Components), len(sp.Items))
	}
}

func TestEdgeMeasureServer(t *testing.T) {
	ts := testServer(t, "ktruss", "")
	resp := get(t, ts.URL+"/linked.png?x=0.5&y=0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("edge-field linked view status %d", resp.StatusCode)
	}
	if _, err := png.Decode(resp.Body); err != nil {
		t.Fatalf("edge-field linked view not a PNG: %v", err)
	}
}

func TestMeasureSwitchEndpoint(t *testing.T) {
	ts := testServer(t, "kcore", "")

	// No name: report the current measure and the registry.
	var info struct {
		Measure    string   `json:"measure"`
		Edge       bool     `json:"edge"`
		SuperNodes int      `json:"superNodes"`
		Available  []string `json:"available"`
	}
	resp := get(t, ts.URL+"/measure")
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Measure != "kcore" || info.Edge || len(info.Available) == 0 {
		t.Fatalf("initial measure state %+v", info)
	}

	// Switch to an edge measure. The cache miss answers immediately —
	// from the stale snapshot with pending=true, or already swapped if
	// the background run won the race — and the swap lands async.
	sw := getMeasureInfo(t, ts.URL+"/measure?name=ktruss")
	if sw.Pending {
		if sw.RequestedMeasure != "ktruss" {
			t.Fatalf("pending switch echoes %q, want ktruss", sw.RequestedMeasure)
		}
	} else if sw.Measure != "ktruss" {
		t.Fatalf("settled switch state %+v", sw)
	}
	settled := waitSettled(t, ts)
	if settled.Measure != "ktruss" || !settled.Edge || settled.SuperNodes < 1 {
		t.Fatalf("post-switch measure state %+v", settled)
	}
	if img := get(t, ts.URL+"/treemap.png?size=128"); img.StatusCode != http.StatusOK {
		t.Fatalf("treemap after switch status %d", img.StatusCode)
	}

	// Unknown names are rejected and leave the served state intact.
	if resp := get(t, ts.URL+"/measure?name=nonsense"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad measure switch status %d, want 400", resp.StatusCode)
	}
	if info := waitSettled(t, ts); info.Measure != "ktruss" {
		t.Fatalf("measure changed to %q by a rejected switch", info.Measure)
	}
}

func TestMeasureSwitchCarriesColorAcrossBases(t *testing.T) {
	// Started with -color degree (vertex). A round trip through an edge
	// measure — where the vertex coloring cannot apply — must neither
	// fail nor forget the color preference: back on a vertex measure
	// the degree coloring is restored (it would error if the basis
	// check were wrong, and an explicit empty color= clears it).
	ts := testServer(t, "kcore", "degree")
	for _, q := range []string{"?name=ktruss", "?name=onion"} {
		if resp := get(t, ts.URL+"/measure"+q); resp.StatusCode != http.StatusOK {
			t.Fatalf("switch %s status %d", q, resp.StatusCode)
		}
	}
	// An explicit cross-basis color is still a client error.
	if resp := get(t, ts.URL+"/measure?name=onion&color=ktruss"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("cross-basis explicit color status %d, want 400", resp.StatusCode)
	}
	// Explicitly clearing the color works.
	if resp := get(t, ts.URL+"/measure?name=kcore&color="); resp.StatusCode != http.StatusOK {
		t.Fatalf("clearing color status %d", resp.StatusCode)
	}
}

func TestMeasureSwitchUnderConcurrentReads(t *testing.T) {
	// Readers hammer the viewer while measures flip underneath; the
	// RWMutex snapshotting must keep every response coherent (run with
	// -race in CI).
	ts := testServer(t, "kcore", "")
	done := make(chan struct{})
	go func() {
		// http.Get directly: t.Fatal must not be called off the test
		// goroutine.
		defer close(done)
		for i := 0; i < 6; i++ {
			name := []string{"degree", "kcore", "onion"}[i%3]
			if resp, err := http.Get(ts.URL + "/measure?name=" + name); err == nil {
				resp.Body.Close()
			}
		}
	}()
	for i := 0; i < 12; i++ {
		if resp := get(t, ts.URL+"/peaks?alpha=1"); resp.StatusCode != http.StatusOK {
			t.Fatalf("peaks during switches: status %d", resp.StatusCode)
		}
	}
	<-done
}

// TestAsyncMeasureSwitch is the async re-analysis satellite: a switch
// to an uncached key answers immediately — from the stale snapshot
// with pending=true and the requested selection echoed — and the
// background analysis (exactly one, via the engine's singleflight, no
// matter how many concurrent switches ask) swaps the selection when it
// lands.
func TestAsyncMeasureSwitch(t *testing.T) {
	srv, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	startup := srv.engine.AnalysisCount()

	var wg sync.WaitGroup
	responses := make([]measureInfo, 8)
	errs := make([]error, 8)
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/measure?name=harmonic")
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			errs[i] = json.NewDecoder(resp.Body).Decode(&responses[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Every response is coherent: either still serving the old snapshot
	// with the new selection pending, or already swapped.
	for i, info := range responses {
		switch {
		case info.Pending:
			if info.Measure != "kcore" || info.RequestedMeasure != "harmonic" {
				t.Fatalf("response %d pending but serves %q, requests %q", i, info.Measure, info.RequestedMeasure)
			}
		case info.Measure != "harmonic" && info.Measure != "kcore":
			t.Fatalf("response %d serves %q", i, info.Measure)
		}
	}
	if got := waitSettled(t, ts); got.Measure != "harmonic" {
		t.Fatalf("settled on %q, want harmonic", got.Measure)
	}
	// The concurrent misses coalesced into one background run.
	if ran := srv.engine.AnalysisCount() - startup; ran != 1 {
		t.Fatalf("%d analyses for 8 concurrent switches, want 1", ran)
	}
}

// TestPartialSwitchComposesWithPending pins the default-from-want
// rule: a dataset-only switch issued while a measure switch is still
// pending must keep that measure — defaults come from the latest
// requested selection, not the stale served one, so the acknowledged
// in-flight half is never silently reverted.
func TestPartialSwitchComposesWithPending(t *testing.T) {
	ts := testServer(t, "kcore", "")
	if resp := get(t, ts.URL+"/measure?name=harmonic"); resp.StatusCode != http.StatusOK {
		t.Fatalf("measure switch status %d", resp.StatusCode)
	}
	// Regardless of whether the harmonic analysis has landed yet, a
	// dataset-only switch composes with it.
	if resp := get(t, ts.URL+"/measure?dataset=PPI"); resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset switch status %d", resp.StatusCode)
	}
	if info := waitSettled(t, ts); info.Dataset != "PPI" || info.Measure != "harmonic" {
		t.Fatalf("settled on (%s, %s), want (PPI, harmonic)", info.Dataset, info.Measure)
	}
}

func TestUnknownMeasureRejected(t *testing.T) {
	if _, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: "nonsense"}); err == nil {
		t.Fatal("unknown measure must be rejected")
	}
	if _, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: "kcore", colorBy: "ktruss"}); err == nil {
		t.Fatal("vertex height + edge color must be rejected")
	}
	if _, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: "kcore", bins: -1}); err == nil {
		t.Fatal("negative -bins must be rejected at startup")
	}
	if _, err := newServer(serverConfig{dataset: "GrQc", scale: 0.03, seed: 42, measure: "kcore", mmapGraphs: true}); err == nil {
		t.Fatal("-mmap-graphs without -store-dir must be rejected at startup")
	}
}

func postQuery(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/api/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// batchResponse mirrors the subset of query.Response these tests read.
type batchResponse struct {
	Snapshot struct {
		Dataset string `json:"dataset"`
		Measure string `json:"measure"`
		Edge    bool   `json:"edge"`
		Seq     uint64 `json:"seq"`
		Items   int    `json:"items"`
	} `json:"snapshot"`
	Results []struct {
		Op    string `json:"op"`
		Error string `json:"error"`
		Count int    `json:"count"`
		Peaks []struct {
			Items int `json:"items"`
		} `json:"peaks"`
		Spectrum *struct {
			Levels     []float64 `json:"Levels"`
			Components []int     `json:"Components"`
			Items      []int     `json:"Items"`
		} `json:"spectrum"`
		GCI *float64 `json:"gci"`
	} `json:"results"`
}

// TestBatchQueryEndpoint is the acceptance criterion at the server
// level: one POST /api/v1/query answers a mixed alpha_cut + peaks +
// gci batch from one snapshot, with unset key fields defaulting to the
// viewer's current selection.
func TestBatchQueryEndpoint(t *testing.T) {
	ts := testServer(t, "kcore", "")
	resp, data := postQuery(t, ts.URL, `{"ops": [
		{"op": "alpha_cut", "alpha": 2},
		{"op": "peaks", "alpha": 2},
		{"op": "gci", "measure_j": "degree"}
	]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var out batchResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Snapshot.Measure != "kcore" || out.Snapshot.Dataset != "GrQc" {
		t.Fatalf("defaults not applied: %+v", out.Snapshot)
	}
	if len(out.Results) != 3 {
		t.Fatalf("%d results for 3 ops", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Error != "" {
			t.Fatalf("op %d errored: %s", i, r.Error)
		}
	}
	if out.Results[0].Count < 1 || len(out.Results[1].Peaks) < 1 || out.Results[2].GCI == nil {
		t.Fatalf("implausible batch results: %+v", out.Results)
	}
}

// TestDatasetSwitchOnDemand loads a second Table I dataset through the
// engine's loader, then switches back to the registered one.
func TestDatasetSwitchOnDemand(t *testing.T) {
	ts := testServer(t, "kcore", "")
	resp := get(t, ts.URL+"/measure?dataset=PPI")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dataset switch status %d", resp.StatusCode)
	}
	info := waitSettled(t, ts)
	if info.Dataset != "PPI" || info.Measure != "kcore" {
		t.Fatalf("post-switch state %+v", info)
	}
	// The on-demand-loaded dataset is listed alongside the registered one.
	listed := map[string]bool{}
	for _, d := range info.Datasets {
		listed[d] = true
	}
	if !listed["PPI"] || !listed["GrQc"] {
		t.Fatalf("datasets list %v missing PPI or GrQc", info.Datasets)
	}
	// The viewer endpoints serve the new dataset's snapshot.
	if img := get(t, ts.URL+"/treemap.png?size=128"); img.StatusCode != http.StatusOK {
		t.Fatalf("treemap after dataset switch: %d", img.StatusCode)
	}
	// Unknown datasets are a client error — still synchronous, the
	// dataset resolves before any background work starts — and leave
	// the selection intact.
	if resp := get(t, ts.URL+"/measure?dataset=NotATable1Name"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown dataset status %d, want 400", resp.StatusCode)
	}
	if info := waitSettled(t, ts); info.Dataset != "PPI" {
		t.Fatalf("selection changed to %q by a rejected switch", info.Dataset)
	}
}

// TestBatchQueriesConsistentUnderMeasureSwitches is the concurrency
// satellite: hammer the batch endpoint while /measure flips between a
// vertex-based and an edge-based measure, and assert every response is
// internally consistent — all fields from one snapshot. The invariant:
// at a cut height below every level, the peak item counts sum to the
// spectrum's total survivor count and the peak count equals B0 at the
// lowest level. kcore (items = vertices) and ktruss (items = edges)
// disagree on both, so a torn response mixing two snapshots fails.
// Run with -race in CI.
func TestBatchQueriesConsistentUnderMeasureSwitches(t *testing.T) {
	ts := testServer(t, "kcore", "")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 8; i++ {
			name := []string{"ktruss", "kcore"}[i%2]
			if resp, err := http.Get(ts.URL + "/measure?name=" + name); err == nil {
				resp.Body.Close()
			}
		}
	}()

	body := `{"ops": [{"op": "spectrum"}, {"op": "peaks", "alpha": -1e18}]}`
	for i := 0; i < 24; i++ {
		resp, data := postQuery(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("batch %d status %d: %s", i, resp.StatusCode, data)
		}
		var out batchResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if out.Snapshot.Measure != "kcore" && out.Snapshot.Measure != "ktruss" {
			t.Fatalf("batch %d: unexpected measure %q", i, out.Snapshot.Measure)
		}
		if wantEdge := out.Snapshot.Measure == "ktruss"; out.Snapshot.Edge != wantEdge {
			t.Fatalf("batch %d: measure %q but edge=%v", i, out.Snapshot.Measure, out.Snapshot.Edge)
		}
		spec, peaks := out.Results[0], out.Results[1]
		if spec.Error != "" || peaks.Error != "" || spec.Spectrum == nil {
			t.Fatalf("batch %d results: %+v", i, out.Results)
		}
		if len(spec.Spectrum.Items) == 0 {
			t.Fatalf("batch %d: empty spectrum", i)
		}
		survivors := spec.Spectrum.Items[0]
		total := 0
		for _, p := range peaks.Peaks {
			total += p.Items
		}
		if total != survivors || total != out.Snapshot.Items {
			t.Fatalf("batch %d torn: peak items sum %d, spectrum survivors %d, snapshot items %d (measure %s)",
				i, total, survivors, out.Snapshot.Items, out.Snapshot.Measure)
		}
		if len(peaks.Peaks) != spec.Spectrum.Components[0] {
			t.Fatalf("batch %d torn: %d peaks vs B0=%d at the lowest level",
				i, len(peaks.Peaks), spec.Spectrum.Components[0])
		}
	}
	<-done
}

// TestWriteJSONUnencodable: a value with no JSON form (a ±Inf from a
// library field) is a 500 naming the failure, not an empty 200; an
// encodable value is written as indented JSON with a trailing newline.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, []float64{1, math.Inf(1)})
	if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "encoding response") {
		t.Fatalf("unencodable value: status %d, body %q", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	writeJSON(rec, map[string][]int{"a": {1, 2}})
	if want := "{\n \"a\": [\n  1,\n  2\n ]\n}\n"; rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Fatalf("status %d, body %q; want 200, %q", rec.Code, rec.Body, want)
	}
}
