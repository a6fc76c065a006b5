package main

// The fault-injection acceptance test: a two-node fleet under a
// deterministic chaos schedule — 10% corrupt snapshot-store reads on
// both nodes, injected dial refusals / mid-body resets / latency on
// node a's forwarding path, and node b killed outright partway through
// the run — must answer every query either byte-identically to an
// unfaulted single node, explicitly marked degraded, or shed with 503 +
// Retry-After. Never a hang, never silent corruption, and no goroutine
// leaks after teardown. CI runs this under -race as the chaos job.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	scalarfield "repro"
	"repro/internal/query"
	"repro/internal/resilience"
)

// chaosSeed pins the whole fault schedule: every run of this test
// injects the same faults at the same points.
const chaosSeed = 20260808

// chaosStore wraps a fresh DiskStore in the fault injector: reads draw
// from channel+"/read", and a corrupt decision scribbles on the entry's
// backing file first, so the DiskStore's own decode → quarantine path
// handles the garbage exactly as it would real bit rot.
func chaosStore(t *testing.T, inj *Injector, channel, dir string) query.SnapshotStore {
	t.Helper()
	disk, err := query.NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return &FaultKV[query.Key, *query.Snapshot]{
		Inner:   disk,
		Inj:     inj,
		Channel: channel,
		OnCorrupt: func(k query.Key) {
			os.WriteFile(filepath.Join(dir, query.SnapshotFileName(k)), []byte("chaos garbage"), 0o644)
		},
	}
}

// forwardsOnly sends forwarded queries through its faulty transport and
// every other peer call (gossip probes, fetches, pushes) through the
// default one, so the fault schedule lands on forwards alone.
type forwardsOnly struct{ faulty http.RoundTripper }

func (t forwardsOnly) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Path == "/api/v1/query" {
		return t.faulty.RoundTrip(req)
	}
	return http.DefaultTransport.RoundTrip(req)
}

func TestChaosFleetSurvivesFaultsAndNodeDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos fleet run is not short")
	}
	baseGoroutines := runtime.NumGoroutine()

	inj := NewInjector(chaosSeed)
	inj.Configure("storeA/read", FaultWeights{Corrupt: 0.10})
	inj.Configure("storeB/read", FaultWeights{Corrupt: 0.10})
	inj.Configure("forwardA", FaultWeights{Error: 0.15, Reset: 0.15, Latency: 0.10})

	storeA := chaosStore(t, inj, "storeA", t.TempDir())
	storeB := chaosStore(t, inj, "storeB", t.TempDir())
	faultyForward := &FaultTransport{Inj: inj, Channel: "forwardA", Latency: 10 * time.Millisecond}

	nodeConfig := func(store query.SnapshotStore, transport http.RoundTripper) serverConfig {
		return serverConfig{
			dataset: "GrQc", scale: 0.02, seed: 42, measure: "kcore",
			store: store, transport: transport,
			forwardTimeout:   5 * time.Second,
			breakerThreshold: 2, breakerCooldown: 200 * time.Millisecond,
		}
	}
	srvA, err := newServer(nodeConfig(storeA, forwardsOnly{faultyForward}))
	if err != nil {
		t.Fatal(err)
	}
	srvB, err := newServer(nodeConfig(storeB, nil))
	if err != nil {
		t.Fatal(err)
	}
	srvRef, err := newServer(serverConfig{dataset: "GrQc", scale: 0.02, seed: 42, measure: "kcore"})
	if err != nil {
		t.Fatal(err)
	}

	tsA := httptest.NewServer(srvA.routes())
	defer tsA.Close()
	tsB := httptest.NewServer(srvB.routes())
	defer tsB.Close() // idempotent; the mid-run kill usually got here first
	tsRef := httptest.NewServer(srvRef.routes())
	defer tsRef.Close()

	foundFleet(t, resilience.ProbeOptions{Interval: 100 * time.Millisecond},
		map[string]*server{"a": srvA, "b": srvB},
		map[string]string{"a": tsA.URL, "b": tsB.URL})

	// A dedicated client for the test's own requests, so its idle
	// connections can be torn down before the goroutine-leak check.
	testTransport := &http.Transport{}
	testClient := &http.Client{Transport: testTransport, Timeout: 60 * time.Second}
	post := func(url, body string) (status int, retryAfter string, data []byte) {
		t.Helper()
		resp, err := testClient.Post(url+"/api/v1/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("query POST failed outright (hang or refused): %v", err)
		}
		defer resp.Body.Close()
		data, err = io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading query response: %v", err)
		}
		return resp.StatusCode, resp.Header.Get("Retry-After"), data
	}

	// The unfaulted single node defines byte-correctness.
	reference := make(map[string][]byte)
	for _, m := range scalarfield.Measures() {
		st, _, data := post(tsRef.URL, queryBody(m))
		if st != http.StatusOK {
			t.Fatalf("reference node: measure %s status %d", m, st)
		}
		reference[m] = data
	}

	// The chaos invariant: byte-correct, explicitly degraded, or an
	// honest shed. Anything else — a silently wrong 200, an unmarked
	// 503, an unexpected status — fails the run.
	check := func(node, measure string, st int, retryAfter string, data []byte) {
		t.Helper()
		switch st {
		case http.StatusOK:
			if bytes.Equal(data, reference[measure]) {
				return
			}
			var out query.Response
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatalf("node %s, measure %s: unparseable 200 body: %v\n%s", node, measure, err, data)
			}
			if out.Degraded == "" {
				t.Fatalf("node %s, measure %s: 200 differs from reference without a degraded marker:\ngot: %s\nref: %s",
					node, measure, data, reference[measure])
			}
		case http.StatusServiceUnavailable:
			if retryAfter == "" {
				t.Fatalf("node %s, measure %s: 503 without Retry-After", node, measure)
			}
		default:
			t.Fatalf("node %s, measure %s: status %d\n%s", node, measure, st, data)
		}
	}

	bDead := false
	for rep := 0; rep < 3; rep++ {
		for _, m := range scalarfield.Measures() {
			st, ra, data := post(tsA.URL, queryBody(m))
			check("a", m, st, ra, data)
			if !bDead {
				st, ra, data = post(tsB.URL, queryBody(m))
				check("b", m, st, ra, data)
			}
		}
		if rep == 0 {
			// Kill node b mid-run — a crash, so its gossip probes stop
			// too: node a must keep answering correctly through refused
			// forwards, an opening breaker, b's eviction, and local
			// fallbacks.
			bDead = true
			srvB.fleetRuntime().stop()
			tsB.Close()
		}
	}

	// The schedule must actually have fired, or the run was vacuous.
	injected := 0
	for _, ch := range []string{"storeA/read", "storeB/read", "forwardA"} {
		for f, n := range inj.Counts(ch) {
			if f != FaultNone {
				injected += n
			}
		}
	}
	if injected == 0 {
		t.Fatal("fault injector never fired; the chaos run tested nothing")
	}

	// Teardown everything, then require the goroutine count to settle
	// back near the baseline: probe loops, detached analyses, and relay
	// paths must all have exited.
	srvA.fleetRuntime().stop()
	srvB.fleetRuntime().stop()
	tsA.Close()
	tsB.Close()
	tsRef.Close()
	testTransport.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+8 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d at start, %d after teardown\n%s",
				baseGoroutines, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestHealthzReportsShardIdentity: the liveness endpoint answers 200
// with this node's shard name — the contract operators and the serving
// benchmark's trace rely on.
func TestHealthzReportsShardIdentity(t *testing.T) {
	counter := newAnalysisCounter()
	srv, ts := fleetNode(t, counter)
	foundFleet(t, fixedRing, map[string]*server{"a": srv},
		map[string]string{"a": ts.URL, "b": "http://127.0.0.1:1"})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d, want 200", resp.StatusCode)
	}
	var out struct {
		Status string `json:"status"`
		Shard  string `json:"shard"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Status != "ok" || out.Shard != "a" {
		t.Fatalf("healthz answered %+v, want status ok, shard a", out)
	}
}
