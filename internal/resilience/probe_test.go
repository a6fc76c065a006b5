package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestProbeLoopDrivesBreaker(t *testing.T) {
	var healthy sync.Map
	healthy.Store("up", false)
	probe := func(context.Context) error {
		if up, _ := healthy.Load("up"); up.(bool) {
			return nil
		}
		return errors.New("down")
	}
	b := NewBreaker(BreakerConfig{Threshold: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		ProbeLoop(ctx, b, probe, ProbeOptions{Interval: time.Millisecond, MaxInterval: 5 * time.Millisecond})
	}()

	waitState := func(want BreakerState, msg string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for b.State() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s (state %v)", msg, b.State())
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitState(Open, "probe failures never tripped the breaker")
	healthy.Store("up", true)
	waitState(Closed, "probe success never closed the breaker")
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ProbeLoop did not stop on context cancel")
	}
}
