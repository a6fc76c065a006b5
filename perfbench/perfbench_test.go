package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/query"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	sorted := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, tc := range []struct {
		n      int
		p      float64
		want   float64
		beyond int
		ok     bool
	}{
		{100, 0.9, 90, 10, true},
		{99, 0.9, 90, 9, false},
		{1000, 0.99, 990, 10, true},
		{999, 0.99, 990, 9, false},
		{150, 0.9, 135, 15, true},
		{1, 0.5, 1, 0, false},
	} {
		v, beyond := percentile(sorted(tc.n), tc.p)
		ok := beyond >= minTail
		if v != tc.want || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("n=%d p=%v: got value %v, %d beyond, ok=%v; want %v, %d, %v",
				tc.n, tc.p, v, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
}

// The steadiness rule is stated in terms of Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

// Every request counts at its class's 2nd-percentile latency: the
// fastest sample up to fifty samples, the second from fifty-one.
func TestQuietCountsEachRequestAtItsClassQuietTime(t *testing.T) {
	many := make([]float64, 51)
	for i := range many {
		many[len(many)-1-i] = float64(i + 1)
	}
	r := &loopResult{byClass: map[int][]float64{0: many, 1: {100}, 2: {13, 9, 11}}}
	var want []float64
	for range many {
		want = append(want, 2)
	}
	want = append(want, 9, 9, 9, 100)
	if got := r.quiet(); !slices.Equal(got, want) {
		t.Errorf("quiet() = %v, want %v", got, want)
	}
}

// A server that answers some requests with bytes other than the
// oracle's — here a degraded marker spliced in — must have each such
// request counted failed as a mismatch, and the rest completed.
func TestOracleMismatchCountsAsFailure(t *testing.T) {
	o, err := newOracle(0.05, query.Options{})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := o.snapshot(query.Key{Dataset: dataset, Measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}
	pool := cheapPool(o, (&env{seed: 7}).rng(1), []*served{newServed(snap)}, 8)
	h := &query.Handler{Engine: o.eng}
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if n.Add(1)%3 == 0 {
			body = bytes.Replace(body, []byte(`"results"`), []byte(`"degraded":"stale","results"`), 1)
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	defer srv.Close()

	res := closedLoop(context.Background(), newClient(1), newCycle(srv.URL, pool, 1), 1, 300*time.Millisecond)
	if res.failed == 0 || res.byKind[failMismatch] != res.failed {
		t.Fatalf("failed=%d by kind %v: want every failure a mismatch, and some", res.failed, res.byKind)
	}
	if res.completed() == 0 {
		t.Fatal("no request completed: the unaltered answers must match the oracle")
	}
	if want := res.attempted / 3; res.failed < want-1 || res.failed > want+1 {
		t.Errorf("%d of %d failed, want about a third", res.failed, res.attempted)
	}
}

// BENCHMARK.json and the program must agree on every workload and
// metric, and the file must stay inside the benchmark contract's
// limits.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			metric
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters (max 200)", w.Name, len(w.Why))
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	var e2e []metric
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metric)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end %v, program has %v", e2e, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer) {
		t.Errorf("per_layer %v, program has %v", spec.PerLayer, perLayer)
	}
}

// Every workload runs end to end at a tiny scale against the real
// server: no failed request, no replay mismatch, every metric present.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/serve")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	bin := filepath.Join(t.TempDir(), "serve")
	if err := buildServe(ctx, "..", bin); err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			o := options{root: "..", workload: name, seed: 3, seconds: 1, trace: trace, scale: 0.05}
			out, err := measure(ctx, o, bin, t.TempDir(), t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", name, trace, out.Correct, out.Failed, out.Attempted)
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(out.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := out.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v", name, trace, m.Name, v)
				}
			}
		}
	}
}
