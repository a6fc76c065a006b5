package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for breaker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// NewBreaker returns a closed breaker with the given configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

func testBreaker(clk *fakeClock) *Breaker {
	return NewBreaker(BreakerConfig{
		Threshold:   3,
		Cooldown:    time.Second,
		MaxCooldown: 8 * time.Second,
		Jitter:      func() float64 { return 0 }, // deterministic: cooldown/2
		Now:         clk.now,
	})
}

func TestBreakerTripsAfterThresholdAndRecoversViaHalfOpen(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := testBreaker(clk)

	// Below threshold: stays closed.
	b.Failure()
	b.Failure()
	if !b.Allow() || b.State() != Closed {
		t.Fatalf("closed breaker with 2/3 failures must allow (state %v)", b.State())
	}
	// Third consecutive failure trips it.
	b.Failure()
	if b.State() != Open || b.Allow() {
		t.Fatalf("breaker must be open after threshold failures (state %v)", b.State())
	}

	// Cooldown (jitter 0 → cooldown/2 = 500ms) not yet elapsed.
	clk.advance(400 * time.Millisecond)
	if b.Allow() {
		t.Fatal("open breaker allowed before cooldown elapsed")
	}
	// After the cooldown exactly one half-open probe is granted.
	clk.advance(200 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("half-open probe not granted after cooldown")
	}
	if b.Allow() {
		t.Fatal("second concurrent half-open probe granted")
	}
	// Probe succeeds: closed, history reset.
	b.Success()
	if b.State() != Closed || !b.Allow() {
		t.Fatal("successful probe must close the breaker")
	}
	b.Failure()
	b.Failure()
	if b.State() != Closed {
		t.Fatal("failure count must reset after a success")
	}
}

func TestBreakerHalfOpenFailureBacksOffExponentially(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := testBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	// Trip 1: cooldown/2 = 500ms.
	clk.advance(500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe not granted after first cooldown")
	}
	// The probe fails: trip 2 doubles the cooldown (2s/2 = 1s).
	b.Failure()
	if b.State() != Open {
		t.Fatal("failed half-open probe must reopen")
	}
	clk.advance(900 * time.Millisecond)
	if b.Allow() {
		t.Fatal("reopened breaker allowed before the doubled cooldown")
	}
	clk.advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe not granted after doubled cooldown")
	}
	// Trip 3: 4s/2 = 2s.
	b.Failure()
	clk.advance(1900 * time.Millisecond)
	if b.Allow() {
		t.Fatal("trip 3 cooldown must be ~2s")
	}
	clk.advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe not granted after trip-3 cooldown")
	}
	b.Success()
	if b.State() != Closed {
		t.Fatal("recovery after repeated trips must close")
	}
}

func TestBreakerAbandonedProbeReArms(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	b := testBreaker(clk)
	for i := 0; i < 3; i++ {
		b.Failure()
	}
	clk.advance(500 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe not granted")
	}
	// The prober never reports (crashed). After another cooldown a new
	// probe is granted instead of wedging half-open forever.
	if b.Allow() {
		t.Fatal("probe slot granted twice without cooldown")
	}
	clk.advance(time.Second)
	if !b.Allow() {
		t.Fatal("abandoned probe must re-arm after a further cooldown")
	}
}

func TestBreakerSetSharesConfigPerName(t *testing.T) {
	clk := &fakeClock{t: time.Unix(0, 0)}
	s := NewBreakerSet(BreakerConfig{Threshold: 1, Now: clk.now, Jitter: func() float64 { return 0 }})
	a, b := s.For("a"), s.For("b")
	if a != s.For("a") {
		t.Fatal("For must return the same breaker per name")
	}
	a.Failure()
	if a.State() != Open {
		t.Fatal("threshold-1 breaker must trip on first failure")
	}
	if b.State() != Closed {
		t.Fatal("breakers must be independent per name")
	}
	states := s.States()
	if states["a"] != Open || states["b"] != Closed {
		t.Fatalf("States() = %v", states)
	}
}

func TestGateBoundsConcurrencyAndShedsOverflow(t *testing.T) {
	g := NewGate(2, 1)
	ctx := context.Background()

	r1, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := g.Acquire(ctx)
	if err != nil {
		t.Fatal(err)
	}
	// Third caller waits in the queue.
	queued := make(chan error, 1)
	go func() {
		r3, err := g.Acquire(ctx)
		if err == nil {
			defer r3()
		}
		queued <- err
	}()
	// Wait until the queued caller is counted.
	deadline := time.Now().Add(2 * time.Second)
	for g.Waiting() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("queued caller never counted (waiting %d)", g.Waiting())
		}
		time.Sleep(time.Millisecond)
	}
	// Fourth caller: slots and queue full — shed immediately.
	if _, err := g.Acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow Acquire = %v, want ErrOverloaded", err)
	}
	// A release lets the queued caller through.
	r1()
	if err := <-queued; err != nil {
		t.Fatalf("queued caller got %v", err)
	}
	r2()
}

func TestGateAcquireHonorsContext(t *testing.T) {
	g := NewGate(1, 4)
	release, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire with expired ctx = %v", err)
	}
	release()
	if g.Waiting() != 0 {
		t.Fatalf("waiting = %d after release and ctx abort, want 0", g.Waiting())
	}
}

func TestRetryDoBoundedAttemptsAndBackoff(t *testing.T) {
	var slept []time.Duration
	cfg := RetryConfig{
		Attempts: 3,
		Base:     100 * time.Millisecond,
		Max:      time.Second,
		Jitter:   func() float64 { return 0 }, // backoff = d/2 exactly
		Sleep: func(_ context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	calls := 0
	err := Do(context.Background(), cfg, nil, func() error {
		calls++
		return errors.New("nope")
	})
	if err == nil || calls != 3 {
		t.Fatalf("Do = %v after %d calls, want error after 3", err, calls)
	}
	if len(slept) != 2 || slept[0] != 50*time.Millisecond || slept[1] != 100*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [50ms 100ms]", slept)
	}

	calls = 0
	if err := Do(context.Background(), cfg, nil, func() error {
		calls++
		if calls < 2 {
			return errors.New("transient")
		}
		return nil
	}); err != nil || calls != 2 {
		t.Fatalf("Do = %v after %d calls, want success on attempt 2", err, calls)
	}
}
