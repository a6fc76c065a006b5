package main

// The elastic-membership acceptance tests: a dynamic fleet must
// survive a node dying mid-traffic (suspicion evicts it, survivors
// re-cover its arcs) and a replacement joining (seed admission, view
// gossip, snapshot hydration so the newcomer never re-analyzes work
// the fleet already did), answer every query byte-identically /
// explicitly degraded / honestly shed throughout, drain gracefully on
// demand (readiness flips, in-flight requests finish, owned snapshots
// hand off), and leak no goroutines once stopped. CI runs the churn
// scenario in the chaos job under -race.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	scalarfield "repro"
	"repro/internal/fleet"
	"repro/internal/query"
	"repro/internal/resilience"
)

// fleetProbeOpts keeps membership reaction times test-sized: probes
// every 50ms, backing off to at most 250ms while a peer is down, so
// the default 3-failure suspicion threshold evicts within ~1s.
var fleetProbeOpts = resilience.ProbeOptions{
	Interval:    50 * time.Millisecond,
	MaxInterval: 250 * time.Millisecond,
}

// keyRecorder collects keys from the hydration hooks (peer fetch and
// handoff push), so tests can assert a node got a snapshot without
// analyzing.
type keyRecorder struct {
	mu   sync.Mutex
	keys map[query.Key]bool
}

func newKeyRecorder() *keyRecorder { return &keyRecorder{keys: make(map[query.Key]bool)} }

func (r *keyRecorder) fetch(k query.Key, _ string) { r.add(k) }
func (r *keyRecorder) push(k query.Key)            { r.add(k) }
func (r *keyRecorder) add(k query.Key) {
	r.mu.Lock()
	r.keys[k] = true
	r.mu.Unlock()
}
func (r *keyRecorder) has(k query.Key) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.keys[k]
}

// dynamicNode builds a server ready for startFleet: its base URL is
// the httptest server's, its analyses are counted, and hydration
// events are recorded.
func dynamicNode(t *testing.T, counter *analysisCounter, hydrated *keyRecorder) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(serverConfig{
		dataset: "GrQc", scale: 0.02, seed: 42, measure: "kcore",
		onAnalyze:      counter.hook,
		onFetch:        hydrated.fetch,
		onPush:         hydrated.push,
		forwardTimeout: 5 * time.Second, probeTimeout: time.Second,
		breakerThreshold: 2, breakerCooldown: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	return srv, ts
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// viewHas reports whether a node's membership view contains exactly
// the given member IDs (any status).
func viewHas(s *server, ids ...string) bool {
	rt := s.fleetRuntime()
	if rt == nil {
		return false
	}
	v := rt.manager.View()
	if len(v.Members) != len(ids) {
		return false
	}
	for _, id := range ids {
		if _, ok := v.Find(id); !ok {
			return false
		}
	}
	return true
}

func TestFleetMembershipChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("membership churn run is not short")
	}
	baseGoroutines := runtime.NumGoroutine()

	counters := map[string]*analysisCounter{}
	hydrations := map[string]*keyRecorder{}
	servers := map[string]*server{}
	tss := map[string]*httptest.Server{}
	for _, id := range []string{"a", "b", "c", "d"} {
		counters[id] = newAnalysisCounter()
		hydrations[id] = newKeyRecorder()
		servers[id], tss[id] = dynamicNode(t, counters[id], hydrations[id])
	}
	refCount := newAnalysisCounter()
	_, tsRef := fleetNode(t, refCount)

	// a, b, c found the fleet; d stays out for now.
	seeds := []fleet.Member{
		{ID: "a", URL: tss["a"].URL},
		{ID: "b", URL: tss["b"].URL},
		{ID: "c", URL: tss["c"].URL},
	}
	for _, id := range []string{"a", "b", "c"} {
		err := servers[id].startFleet(fleetConfig{
			self:      fleet.Member{ID: id, URL: tss[id].URL},
			seeds:     seeds,
			probeOpts: fleetProbeOpts,
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Startup analyses (each node analyzed the boot selection locally
	// before the fleet existed) are construction cost, not churn cost.
	baselines := map[string]map[query.Key]int{}
	for id, c := range counters {
		baselines[id] = c.snapshot()
	}

	testTransport := &http.Transport{}
	testClient := &http.Client{Transport: testTransport, Timeout: 60 * time.Second}
	post := func(url, body string) (int, string, []byte) {
		t.Helper()
		resp, err := testClient.Post(url+"/api/v1/query", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatalf("query POST failed outright (hang or refused): %v", err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatalf("reading query response: %v", err)
		}
		return resp.StatusCode, resp.Header.Get("Retry-After"), buf.Bytes()
	}

	reference := make(map[string][]byte)
	for _, m := range scalarfield.Measures() {
		st, _, data := post(tsRef.URL, queryBody(m))
		if st != http.StatusOK {
			t.Fatalf("reference node: measure %s status %d", m, st)
		}
		reference[m] = data
	}

	// The churn invariant on every answer: byte-correct, explicitly
	// degraded, or an honest shed — never silent corruption.
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
				t.Fatalf("node %s, measure %s: 200 differs from reference without a degraded marker", node, measure)
			}
		case http.StatusServiceUnavailable:
			if retryAfter == "" {
				t.Fatalf("node %s, measure %s: 503 without Retry-After", node, measure)
			}
		default:
			t.Fatalf("node %s, measure %s: status %d\n%s", node, measure, st, data)
		}
	}
	sweep := func(nodes ...string) {
		t.Helper()
		for _, m := range scalarfield.Measures() {
			for _, n := range nodes {
				st, ra, data := post(tss[n].URL, queryBody(m))
				check(n, m, st, ra, data)
			}
		}
	}

	// Phase 1: steady-state traffic on the founding three.
	sweep("a", "b", "c")

	// Phase 2: kill c mid-traffic — no goodbye, a crash. Its fleet
	// runtime stops (a dead process runs no probes) and its listener
	// refuses connections. Survivors must evict it by suspicion.
	servers["c"].fleetRuntime().stop()
	tss["c"].Close()
	sweep("a", "b")
	waitFor(t, 15*time.Second, func() bool {
		return viewHas(servers["a"], "a", "b") && viewHas(servers["b"], "a", "b")
	}, "a and b to evict dead c")
	sweep("a", "b")

	// Phase 3: replacement d joins through the original seed list (c
	// among them and dead — join must tolerate that).
	err := servers["d"].startFleet(fleetConfig{
		self:      fleet.Member{ID: "d", URL: tss["d"].URL},
		seeds:     seeds,
		probeOpts: fleetProbeOpts,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 15*time.Second, func() bool {
		return viewHas(servers["a"], "a", "b", "d") &&
			viewHas(servers["b"], "a", "b", "d") &&
			viewHas(servers["d"], "a", "b", "d")
	}, "the fleet to converge on a, b, d")
	sweep("a", "b", "d")

	// Hydration: d's first answer for a key it now owns must come from
	// a peer's analysis — zero analyses on d beyond its own startup.
	newRing := servers["d"].fleetRuntime()
	_ = newRing
	dOwned := ""
	for _, m := range scalarfield.Measures() {
		key := query.Key{Dataset: "GrQc", Measure: m}
		if servers["d"].ringOwnerID(key) == "d" {
			dOwned = m
			break
		}
	}
	if dOwned == "" {
		t.Fatal("no measure key maps to d on the new ring; widen the key set")
	}
	dOwnedKey := query.Key{Dataset: "GrQc", Measure: dOwned}
	st, _, data := post(tss["d"].URL, queryBody(dOwned))
	if st != http.StatusOK || !bytes.Equal(data, reference[dOwned]) {
		t.Fatalf("d's first owned-key answer: status %d, byte-identical=%v", st, bytes.Equal(data, reference[dOwned]))
	}
	if !hydrations["d"].has(dOwnedKey) {
		t.Errorf("d served %v without a recorded hydration (fetch or push)", dOwnedKey)
	}
	for key, n := range counters["d"].snapshot() {
		if n > baselines["d"][key] {
			t.Errorf("replacement d analyzed %v itself (%d > baseline %d); hydration failed", key, n, baselines["d"][key])
		}
	}

	// Exactly-once fleet-wide, per key and generation, among survivors:
	// keys whose analyses survived anywhere are never re-analyzed. A
	// key whose only copy died with c is re-analyzed exactly once.
	for _, m := range scalarfield.Measures() {
		key := query.Key{Dataset: "GrQc", Measure: m}
		total := 0
		for _, id := range []string{"a", "b", "d"} {
			total += counters[id].get(key) - baselines[id][key]
		}
		if total > 1 {
			t.Errorf("key %v analyzed %d times across surviving nodes, want at most 1", key, total)
		}
	}

	// Teardown everything and require the goroutine count to settle:
	// probe loops, join loops, handoff pushes must all exit.
	for _, id := range []string{"a", "b", "d"} {
		servers[id].fleetRuntime().stop()
		tss[id].Close()
	}
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

// TestFleetGracefulDrain: a draining node flips /readyz, lets an
// in-flight request finish untouched, hands its owned snapshots to the
// surviving owner, and stops all its background work.
func TestFleetGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("drain run is not short")
	}
	baseGoroutines := runtime.NumGoroutine()

	countA, countB := newAnalysisCounter(), newAnalysisCounter()
	hydA, hydB := newKeyRecorder(), newKeyRecorder()
	srvA, tsA := dynamicNode(t, countA, hydA)
	srvB, tsB := dynamicNode(t, countB, hydB)
	seeds := []fleet.Member{{ID: "a", URL: tsA.URL}, {ID: "b", URL: tsB.URL}}
	for id, srv := range map[string]*server{"a": srvA, "b": srvB} {
		url := tsA.URL
		if id == "b" {
			url = tsB.URL
		}
		if err := srv.startFleet(fleetConfig{
			self: fleet.Member{ID: id, URL: url}, seeds: seeds, probeOpts: fleetProbeOpts,
		}); err != nil {
			t.Fatal(err)
		}
	}

	testTransport := &http.Transport{}
	testClient := &http.Client{Transport: testTransport, Timeout: 60 * time.Second}

	// Build up state: run every measure through a so both owners hold
	// their arcs' snapshots.
	for _, m := range scalarfield.Measures() {
		resp, err := testClient.Post(tsA.URL+"/api/v1/query", "application/json",
			bytes.NewReader([]byte(queryBody(m))))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup measure %s: status %d", m, resp.StatusCode)
		}
	}
	aKeys := srvA.store.Keys()
	if len(aKeys) == 0 {
		t.Fatal("node a holds no snapshots before drain; the handoff test is vacuous")
	}

	if resp, err := testClient.Get(tsA.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("readyz before drain: status %d, want 200", resp.StatusCode)
		}
	}

	// An in-flight request racing the drain must complete normally —
	// no connection reset, no error payload.
	inflight := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		resp, err := testClient.Post(tsA.URL+"/api/v1/query", "application/json",
			bytes.NewReader([]byte(queryBody("kcore"))))
		if err != nil {
			inflight <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			inflight <- fmt.Errorf("in-flight request status %d", resp.StatusCode)
			return
		}
		inflight <- nil
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	srvA.drain(ctx)

	if resp, err := testClient.Get(tsA.URL + "/readyz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("readyz during drain: status %d, want 503", resp.StatusCode)
		}
	}
	// Liveness stays up through the drain.
	if resp, err := testClient.Get(tsA.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz during drain: status %d, want 200", resp.StatusCode)
		}
	}
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight request across drain: %v", err)
	}

	// drain returned only after the handoff pushes finished: b holds
	// every snapshot a held.
	for _, k := range aKeys {
		if !srvB.store.Contains(k) {
			t.Errorf("after drain, b does not hold handed-off snapshot %v", k)
		}
	}
	// And b learned of the departure: its ring is just itself.
	waitFor(t, 10*time.Second, func() bool {
		return srvB.ringOwnerID(query.Key{Dataset: "GrQc", Measure: "kcore"}) == "b"
	}, "b to own everything after a leaves")

	// Serving a's former keys costs b zero analyses: adoption, not
	// re-analysis.
	baseB := countB.snapshot()
	for _, m := range scalarfield.Measures() {
		resp, err := testClient.Post(tsB.URL+"/api/v1/query", "application/json",
			bytes.NewReader([]byte(queryBody(m))))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drain measure %s on b: status %d", m, resp.StatusCode)
		}
	}
	for key, n := range countB.snapshot() {
		if n > baseB[key] {
			t.Errorf("b re-analyzed %v after the handoff (%d > %d)", key, n, baseB[key])
		}
	}

	tsA.Close()
	srvB.fleetRuntime().stop()
	tsB.Close()
	testTransport.CloseIdleConnections()
	if tr, ok := http.DefaultTransport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines+8 {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after drain: %d at start, %d after teardown\n%s",
				baseGoroutines, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFleetRestartDurability: invalidation generations persist under
// -store-dir, so a restarted node serves its post-invalidation
// snapshots from disk — same Seq, same bytes, zero re-analyses.
func TestFleetRestartDurability(t *testing.T) {
	dir := t.TempDir()
	count1 := newAnalysisCounter()
	srv1, err := newServer(serverConfig{
		dataset: "GrQc", scale: 0.02, seed: 42, measure: "kcore",
		storeDir: dir, onAnalyze: count1.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.routes())

	// Bump GrQc's generation through the origin endpoint, then
	// re-analyze under generation 1.
	resp, err := http.Post(ts1.URL+"/api/v1/invalidate?dataset=GrQc", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("invalidate: status %d", resp.StatusCode)
	}
	if got := srv1.engine.DatasetGeneration("GrQc"); got != 1 {
		t.Fatalf("generation after invalidate = %d, want 1", got)
	}
	st, before := postQueryRaw(t, ts1.URL, queryBody("kcore"))
	if st != http.StatusOK {
		t.Fatalf("pre-restart query: status %d", st)
	}
	ts1.Close()

	// Restart: same store dir, fresh process state.
	count2 := newAnalysisCounter()
	srv2, err := newServer(serverConfig{
		dataset: "GrQc", scale: 0.02, seed: 42, measure: "kcore",
		storeDir: dir, onAnalyze: count2.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2.routes())
	defer ts2.Close()

	if got := srv2.engine.DatasetGeneration("GrQc"); got != 1 {
		t.Fatalf("generation after restart = %d, want 1 (persisted)", got)
	}
	st, after := postQueryRaw(t, ts2.URL, queryBody("kcore"))
	if st != http.StatusOK {
		t.Fatalf("post-restart query: status %d", st)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("post-restart response differs from pre-restart bytes")
	}
	if got := len(count2.snapshot()); got != 0 {
		t.Fatalf("restarted node ran %d analyses, want 0 (generation survived, Seq matched, disk hit valid)", got)
	}
}

// TestFleetViewEpochGuard: a forwarded request stamped with a foreign
// view epoch is detected (counted, hook fired) but still served — the
// Seq guard, not rejection, is what keeps answers correct.
func TestFleetViewEpochGuard(t *testing.T) {
	var mu sync.Mutex
	var got [][2]uint64
	counter := newAnalysisCounter()
	srv, err := newServer(serverConfig{
		dataset: "GrQc", scale: 0.02, seed: 42, measure: "kcore",
		onAnalyze: counter.hook,
		onEpochMismatch: func(remote, local uint64) {
			mu.Lock()
			got = append(got, [2]uint64{remote, local})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	defer ts.Close()
	if err := srv.startFleet(fleetConfig{
		self:      fleet.Member{ID: "a", URL: ts.URL},
		seeds:     []fleet.Member{{ID: "a", URL: ts.URL}},
		probeOpts: fleetProbeOpts,
	}); err != nil {
		t.Fatal(err)
	}
	defer srv.fleetRuntime().stop()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/query",
		bytes.NewReader([]byte(queryBody("kcore"))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(query.ForwardedHeader, "1")
	req.Header.Set(query.ViewEpochHeader, "999")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mismatched-epoch forward: status %d, want 200 (served locally)", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0][0] != 999 || got[0][1] != 1 {
		t.Fatalf("epoch mismatch hook calls = %v, want one (999, 1)", got)
	}
	if srv.epochMismatches.Load() != 1 {
		t.Fatalf("epochMismatches counter = %d, want 1", srv.epochMismatches.Load())
	}
}
