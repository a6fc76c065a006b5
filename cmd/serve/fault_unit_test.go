package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestInjectorIsDeterministicPerSeedAndChannel(t *testing.T) {
	draw := func(seed int64, channel string, n int) []Fault {
		inj := NewInjector(seed)
		inj.Configure(channel, FaultWeights{Error: 0.2, Corrupt: 0.2, Latency: 0.1})
		out := make([]Fault, n)
		for i := range out {
			out[i] = inj.Decide(channel)
		}
		return out
	}
	a := draw(42, "store/read", 256)
	b := draw(42, "store/read", 256)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and channel must replay the same schedule")
	}
	c := draw(43, "store/read", 256)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds must diverge")
	}
	d := draw(42, "other", 256)
	if reflect.DeepEqual(a, d) {
		t.Fatal("different channels must have independent streams")
	}

	// The weights are roughly honored over a long draw.
	inj := NewInjector(7)
	inj.Configure("ch", FaultWeights{Error: 0.5})
	for i := 0; i < 2000; i++ {
		inj.Decide("ch")
	}
	counts := inj.Counts("ch")
	if counts[FaultError] < 800 || counts[FaultError] > 1200 {
		t.Fatalf("0.5-weight error fired %d/2000 times", counts[FaultError])
	}
	if counts[FaultError]+counts[FaultNone] != 2000 {
		t.Fatalf("unexpected fault mix %v", counts)
	}
}

func TestInjectorUnconfiguredChannelIsFaultFree(t *testing.T) {
	inj := NewInjector(1)
	for i := 0; i < 100; i++ {
		if f := inj.Decide("nope"); f != FaultNone {
			t.Fatalf("unconfigured channel decided %v", f)
		}
	}
}

// memKV is a trivial map-backed KV for FaultKV tests.
type memKV struct {
	mu sync.Mutex
	m  map[string]int
}

func newMemKV() *memKV { return &memKV{m: make(map[string]int)} }

func (s *memKV) Get(k string) (int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.m[k]
	return v, ok
}

func (s *memKV) Add(k string, v int) {
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

func (s *memKV) Evict(pred func(string) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k := range s.m {
		if pred(k) {
			delete(s.m, k)
		}
	}
}

func (s *memKV) Contains(k string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.m[k]
	return ok
}

func (s *memKV) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func (s *memKV) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.m))
	for k := range s.m {
		out = append(out, k)
	}
	return out
}

func TestFaultKVReadAndWriteFaults(t *testing.T) {
	inj := NewInjector(99)
	// Always-error reads: every Get is a miss even though the inner
	// store holds the key.
	inj.Configure("s/read", FaultWeights{Error: 1})
	inner := newMemKV()
	inner.Add("k", 7)
	var corrupted []string
	fs := &FaultKV[string, int]{
		Inner:     inner,
		Inj:       inj,
		Channel:   "s",
		OnCorrupt: func(k string) { corrupted = append(corrupted, k) },
	}
	if _, ok := fs.Get("k"); ok {
		t.Fatal("FaultError read must miss")
	}
	if !fs.Contains("k") || fs.Len() != 1 {
		t.Fatal("Contains/Len must pass through untouched")
	}

	// Corrupt reads invoke the hook, then do the real read — the inner
	// store's own validation is what turns garbage into a miss.
	inj.Configure("s/read", FaultWeights{Corrupt: 1})
	if v, ok := fs.Get("k"); !ok || v != 7 {
		t.Fatalf("corrupt read with intact inner store = (%d, %v)", v, ok)
	}
	if len(corrupted) != 1 || corrupted[0] != "k" {
		t.Fatalf("OnCorrupt calls %v, want [k]", corrupted)
	}

	// Dropped writes: the insert is declined, matching the store
	// contract's "Add may decline".
	inj.Configure("s/write", FaultWeights{Error: 1})
	fs.Add("k2", 9)
	if inner.Contains("k2") {
		t.Fatal("FaultError write must drop the insert")
	}
	inj.Configure("s/write", FaultWeights{})
	fs.Add("k2", 9)
	if v, _ := inner.Get("k2"); v != 9 {
		t.Fatal("fault-free write must land")
	}
}

func TestFaultTransportDownAndReset(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"payload":"0123456789abcdef"}`)
	}))
	defer peer.Close()

	ft := &FaultTransport{ResetAfter: 4}
	client := &http.Client{Transport: ft, Timeout: 5 * time.Second}

	// Healthy pass-through.
	resp, err := client.Get(peer.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || len(body) == 0 {
		t.Fatalf("pass-through read: %v (%d bytes)", err, len(body))
	}

	// Down: refused at dial time.
	ft.SetDown(true)
	if _, err := client.Get(peer.URL); err == nil || !errors.Is(err, ErrInjectedRefused) {
		t.Fatalf("down transport returned %v, want ErrInjectedRefused", err)
	}
	ft.SetDown(false)

	// Reset: headers arrive, body cut after ResetAfter bytes.
	inj := NewInjector(5)
	inj.Configure("fwd", FaultWeights{Reset: 1})
	ft.Inj, ft.Channel = inj, "fwd"
	resp, err = client.Get(peer.URL)
	if err != nil {
		t.Fatalf("reset fault must deliver headers, got %v", err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("mid-body read error = %v, want ErrInjectedReset", err)
	}
	if int64(len(body)) > 4 {
		t.Fatalf("reset body delivered %d bytes, want <= 4", len(body))
	}
}

func TestFaultTransportHangHonorsContext(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer peer.Close()
	inj := NewInjector(6)
	inj.Configure("fwd", FaultWeights{Hang: 1})
	client := &http.Client{Transport: &FaultTransport{Inj: inj, Channel: "fwd"}}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, peer.URL, nil)
	start := time.Now()
	if _, err := client.Do(req); err == nil {
		t.Fatal("hung request must fail when its context ends")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("hang fault ignored the context deadline")
	}
}
