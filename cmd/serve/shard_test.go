package main

// The sharding acceptance test: a two-node fleet must be
// indistinguishable from a single node — byte-identical batch-query
// responses for every operation on every registered measure — while
// running exactly one analysis per snapshot key fleet-wide, asserted
// via the engine's OnAnalyze hook under -race. CI runs this as the
// shard-fleet smoke job.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	scalarfield "repro"
	"repro/internal/fleet"
	"repro/internal/query"
	"repro/internal/resilience"
)

// analysisCounter counts analyses per key, for exactly-once assertions.
type analysisCounter struct {
	mu     sync.Mutex
	counts map[query.Key]int
}

func newAnalysisCounter() *analysisCounter {
	return &analysisCounter{counts: make(map[query.Key]int)}
}

func (c *analysisCounter) hook(k query.Key) {
	c.mu.Lock()
	c.counts[k]++
	c.mu.Unlock()
}

func (c *analysisCounter) get(k query.Key) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[k]
}

func (c *analysisCounter) snapshot() map[query.Key]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[query.Key]int, len(c.counts))
	for k, v := range c.counts {
		out[k] = v
	}
	return out
}

func fleetNode(t *testing.T, counter *analysisCounter) (*server, *httptest.Server) {
	t.Helper()
	srv, err := newServer(serverConfig{
		dataset: "GrQc", scale: 0.02, seed: 42, measure: "kcore",
		onAnalyze: counter.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.routes())
	t.Cleanup(ts.Close)
	return srv, ts
}

// fixedRing paces gossip probes so slowly that none fires during a
// test: the founding view, and with it the ring, never changes.
var fixedRing = resilience.ProbeOptions{Interval: time.Hour}

// foundFleet starts each node as a founding member of one fleet whose
// seed list is urls (member ID → base URL, members without a node —
// a dead peer — included), so every node begins from the same view and
// ring. Each node's fleet runtime stops at cleanup.
func foundFleet(t *testing.T, probeOpts resilience.ProbeOptions, nodes map[string]*server, urls map[string]string) {
	t.Helper()
	seeds := make([]fleet.Member, 0, len(urls))
	for id, url := range urls {
		seeds = append(seeds, fleet.Member{ID: id, URL: url})
	}
	for id, srv := range nodes {
		err := srv.startFleet(fleetConfig{
			self:      fleet.Member{ID: id, URL: urls[id]},
			seeds:     seeds,
			probeOpts: probeOpts,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.fleetRuntime().stop)
	}
}

func postQueryRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/api/v1/query", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// queryBody pins the full snapshot key and exercises every operation
// family in one batch.
func queryBody(measure string) string {
	return fmt.Sprintf(`{
		"dataset": "GrQc", "measure": %q, "color": "", "bins": 0,
		"ops": [
			{"op": "alpha_cut", "alpha": 2},
			{"op": "peaks", "alpha": 1},
			{"op": "mcc", "item": 0},
			{"op": "component_of", "item": 1, "alpha": 1},
			{"op": "spectrum"},
			{"op": "lci", "measure_j": "degree"},
			{"op": "gci", "measure_i": "kcore", "measure_j": "triangles"}
		]
	}`, measure)
}

func TestShardFleetMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep over every measure is not short")
	}
	countA, countB, countS := newAnalysisCounter(), newAnalysisCounter(), newAnalysisCounter()
	srvA, tsA := fleetNode(t, countA)
	srvB, tsB := fleetNode(t, countB)
	_, tsS := fleetNode(t, countS)

	foundFleet(t, fixedRing, map[string]*server{"a": srvA, "b": srvB},
		map[string]string{"a": tsA.URL, "b": tsB.URL})

	// Each node analyzed the startup selection locally before joining
	// the ring; those analyses are construction cost, not query cost.
	baseA, baseB, baseS := countA.snapshot(), countB.snapshot(), countS.snapshot()

	owners := map[string]int{}
	for _, measure := range scalarfield.Measures() {
		key := query.Key{Dataset: "GrQc", Measure: measure}
		owners[srvA.ringOwnerID(key)]++
		body := queryBody(measure)

		// Hit both fleet nodes concurrently while the key is uncached:
		// the non-owner forwards, the owner coalesces the forwarded
		// request with its own, and exactly one analysis runs anywhere.
		var fromA, fromB []byte
		var stA, stB int
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); stA, fromA = postQueryRaw(t, tsA.URL, body) }()
		go func() { defer wg.Done(); stB, fromB = postQueryRaw(t, tsB.URL, body) }()
		wg.Wait()
		stS, fromS := postQueryRaw(t, tsS.URL, body)

		if stA != http.StatusOK || stB != http.StatusOK || stS != http.StatusOK {
			t.Fatalf("measure %s: statuses %d/%d/%d", measure, stA, stB, stS)
		}
		if !bytes.Equal(fromA, fromS) {
			t.Fatalf("measure %s: node a's response differs from single node:\n a: %s\n s: %s",
				measure, fromA, fromS)
		}
		if !bytes.Equal(fromB, fromS) {
			t.Fatalf("measure %s: node b's response differs from single node:\n b: %s\n s: %s",
				measure, fromB, fromS)
		}

		// Exactly one analysis fleet-wide per key (zero when the
		// startup analysis already cached it), matching the single
		// node.
		fleetDelta := countA.get(key) - baseA[key] + countB.get(key) - baseB[key]
		singleDelta := countS.get(key) - baseS[key]
		if fleetDelta != singleDelta {
			t.Fatalf("measure %s: fleet ran %d analyses, single node %d", measure, fleetDelta, singleDelta)
		}
		want := 1
		if measure == "kcore" { // the startup selection is pre-cached everywhere
			want = 0
		}
		if singleDelta != want {
			t.Fatalf("measure %s: %d analyses for one key, want %d", measure, singleDelta, want)
		}
	}
	// Sanity: the ring actually split ownership — otherwise this test
	// never exercised forwarding.
	if len(owners) < 2 {
		t.Fatalf("all measures hashed to one owner (%v); ring split failed", owners)
	}
}

// TestShardForwardingLoopProtection: a forwarded request must be
// served locally even if the receiving node believes another node owns
// the key — one hop maximum, never a loop.
func TestShardForwardingLoopProtection(t *testing.T) {
	counter := newAnalysisCounter()
	srv, ts := fleetNode(t, counter)
	// Found the node into a fleet with an unreachable peer that owns
	// part of the ring and is never probed, so never evicted.
	foundFleet(t, fixedRing, map[string]*server{"self": srv},
		map[string]string{"self": ts.URL, "ghost": "http://127.0.0.1:1"})
	for measure, want := range map[string]string{"degree": "self", "clustering": "ghost", "triangles": "ghost"} {
		if got := srv.ringOwnerID(query.Key{Dataset: "GrQc", Measure: measure}); got != want {
			t.Fatalf("measure %s hashes to %q on the {ghost, self} ring, want %q", measure, got, want)
		}
	}

	// Direct requests: a self-owned key is served locally; for a
	// ghost-owned key routing points at the dead peer, forwarding
	// fails, and the node falls back to serving locally.
	for _, measure := range []string{"degree", "clustering"} {
		st, body := postQueryRaw(t, ts.URL, queryBody(measure))
		if st != http.StatusOK {
			t.Fatalf("measure %s: status %d with dead peer, want 200 local fallback: %s", measure, st, body)
		}
	}

	// A request already marked forwarded must not be re-forwarded even
	// though the ring says "ghost owns it".
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/query",
		bytes.NewReader([]byte(queryBody("triangles"))))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(query.ForwardedHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request got %d, want local 200", resp.StatusCode)
	}
}
