package query

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// FuzzQueryRequest feeds hostile bodies to POST /api/v1/query. The
// handler must never panic, and a body can only earn a 200, a 400 or
// a 503: a 500 means a bad request was mistaken for a server failure.
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
		case http.StatusOK, http.StatusBadRequest, http.StatusServiceUnavailable:
		default:
			t.Fatalf("status %d for body %q: %s", w.Code, body, w.Body)
		}
	})
}
