package query

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// FuzzQueryRequest feeds hostile bodies to POST /api/v1/query. The
// handler must never panic, and a body can only earn a 200, a 400 or
// a 503: a 500 means a bad request was mistaken for a server failure.
// A 200 states its body's length, and its body decodes into a
// Response that encoding/json re-encodes to the same bytes.
func FuzzQueryRequest(f *testing.F) {
	e := NewEngine(Options{})
	e.RegisterDataset("tiny", testGraph())
	h := &Handler{Engine: e}
	for _, seed := range []string{
		`{"dataset":"tiny","measure":"kcore","ops":[{"op":"alpha_cut","alpha":1.5,"limit":2}]}`,
		`{"dataset":"tiny","measure":"kcore","color":"degree","ops":[{"op":"peaks","alpha":1}]}`,
		`{"dataset":"tiny","measure":"ktruss","ops":[{"op":"mcc","item":3}]}`,
		`{"dataset":"tiny","measure":"degree","bins":3,"ops":[{"op":"component_of","item":2,"alpha":1,"limit":-1}]}`,
		`{"dataset":"tiny","measure":"kcore","ops":[{"op":"spectrum"}]}`,
		`{"dataset":"tiny","measure":"kcore","ops":[{"op":"lci","measure_i":"degree","measure_j":"clustering","limit":3}]}`,
		`{"dataset":"tiny","measure":"kcore","ops":[{"op":"gci","measure_j":"degree"},{"op":"peaks","alpha":0}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/query", bytes.NewReader(body)))
		switch w.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusServiceUnavailable:
			return
		default:
			t.Fatalf("status %d for body %q: %s", w.Code, body, w.Body)
		}
		if cl := w.Header().Get("Content-Length"); cl != strconv.Itoa(w.Body.Len()) {
			t.Fatalf("Content-Length %q for a %d-byte answer to %q", cl, w.Body.Len(), body)
		}
		var resp Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("answer to %q does not decode: %v\n%s", body, err, w.Body)
		}
		again, err := jsonResponse(&resp)
		if err != nil || !bytes.Equal(again, w.Body.Bytes()) {
			t.Fatalf("answer to %q re-encodes (err %v) as\n%s\nnot\n%s", body, err, again, w.Body)
		}
	})
}

// FuzzInvalidationHandler feeds hostile methods and query strings to
// /api/v1/invalidate, two requests per input against a fresh engine.
// Every request answers 200, 400 or 405, never panics, and never
// lowers the named dataset's generation: a fleet that let a broadcast
// move a generation backwards would re-serve snapshots analyzed before
// the invalidation.
func FuzzInvalidationHandler(f *testing.F) {
	for _, seed := range [][3]string{
		{http.MethodPost, "dataset=tiny", "dataset=tiny"},
		{http.MethodPost, "dataset=tiny&gen=7", "dataset=tiny&gen=3"},
		{http.MethodPost, "dataset=tiny&gen=18446744073709551615", "dataset=tiny"},
		{http.MethodPost, "dataset=tiny&gen=-1", "gen=2"},
		{http.MethodGet, "dataset=tiny", "dataset=%zz"},
		{http.MethodPost, "dataset=a&dataset=b&gen=1", ""},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, method, first, second string) {
		h := &InvalidationHandler{Engine: NewEngine(Options{})}
		for _, rawQuery := range []string{first, second} {
			r := httptest.NewRequest(http.MethodPost, "/api/v1/invalidate", nil)
			r.Method, r.URL.RawQuery = method, rawQuery
			dataset := r.URL.Query().Get("dataset")
			before := h.Engine.DatasetGeneration(dataset)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, r)
			switch w.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed:
			default:
				t.Fatalf("%s ?%s: status %d: %s", method, rawQuery, w.Code, w.Body)
			}
			if after := h.Engine.DatasetGeneration(dataset); after < before {
				t.Fatalf("%s ?%s: generation of %q fell from %d to %d", method, rawQuery, dataset, before, after)
			}
		}
	})
}

// FuzzSnapshotHandlerRequest fuzzes the method, path and query of
// /api/v1/snapshot/{hash} against a node holding one snapshot, with
// that snapshot's encoding as the PUT body. Any request answers a
// 2xx, 400, 404, 405, 409 or 413 — never a 500, never a panic.
func FuzzSnapshotHandlerRequest(f *testing.F) {
	store := NewMemorySnapshotStore(4)
	e := NewEngine(Options{Store: store})
	e.RegisterDataset("tiny", testGraph())
	key := Key{Dataset: "tiny", Measure: "kcore"}
	snap, err := e.Snapshot(key)
	if err != nil {
		f.Fatal(err)
	}
	var body bytes.Buffer
	if err := EncodeSnapshot(&body, snap); err != nil {
		f.Fatal(err)
	}
	snap.Release()
	h := &SnapshotHandler{Engine: e, Local: store.Get}
	path := SnapshotPath(key)
	for _, seed := range [][3]string{
		{http.MethodGet, path, "dataset=tiny&measure=kcore"},
		{http.MethodPut, path, "dataset=tiny&measure=kcore"},
		{http.MethodGet, SnapshotPath(Key{Dataset: "tiny", Measure: "degree"}), "dataset=tiny&measure=degree"},
		{http.MethodGet, SnapshotPath(Key{Dataset: "tiny", Measure: "kcore", Bins: -1}), "dataset=tiny&measure=kcore&bins=-1"},
		{http.MethodPut, path, "dataset=tiny&measure=kcore&bins=1073741825"},
		{http.MethodDelete, path, "dataset=tiny&measure=kcore"},
		{http.MethodGet, "/api/v1/other", ""},
		{http.MethodGet, path, "dataset=tiny&measure=ktruss&color=degree&bins=x"},
	} {
		f.Add(seed[0], seed[1], seed[2])
	}
	f.Fuzz(func(t *testing.T, method, urlPath, rawQuery string) {
		r := httptest.NewRequest(http.MethodGet, "/", bytes.NewReader(body.Bytes()))
		r.Method, r.URL.Path, r.URL.RawQuery = method, urlPath, rawQuery
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		switch c := w.Code; {
		case c >= 200 && c < 300:
		case c == http.StatusBadRequest, c == http.StatusNotFound, c == http.StatusMethodNotAllowed,
			c == http.StatusConflict, c == http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("%s %s?%s: status %d: %s", method, urlPath, rawQuery, c, w.Body)
		}
	})
}
