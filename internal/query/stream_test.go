package query

import (
	"testing"

	"repro/internal/stream"
)

// TestMonitorOnUpdateFiresOnlyOnChange pins the hook's semantics at the
// stream level: accepted state changes fire, rejected or no-op updates
// do not.
func TestMonitorOnUpdateFiresOnlyOnChange(t *testing.T) {
	m := stream.NewMonitor(2, []float64{3, 1})
	fired := 0
	m.OnUpdate(func() { fired++ })

	if err := m.RaiseScalar(1, 1); err != nil || fired != 0 {
		t.Fatalf("no-op RaiseScalar: err=%v fired=%d", err, fired)
	}
	if err := m.RaiseScalar(1, 0.5); err == nil {
		t.Fatal("decrease must be rejected")
	}
	if fired != 0 {
		t.Fatalf("rejected update fired the hook %d times", fired)
	}
	if _, err := m.AddEdge(0, 1); err != nil || fired != 1 {
		t.Fatalf("parked AddEdge: err=%v fired=%d, want 1", err, fired)
	}
	if _, err := m.AddEdge(0, 1); err != nil || fired != 1 {
		t.Fatalf("duplicate parked AddEdge must not fire: fired=%d", fired)
	}
	if err := m.RaiseScalar(1, 2); err != nil || fired != 2 {
		t.Fatalf("activating RaiseScalar: err=%v fired=%d, want 2", err, fired)
	}
	// Redelivering the now-replayed edge between two active, already
	// connected vertices is a no-op and must not fire: an at-least-once
	// stream would otherwise evict snapshots on every redelivery.
	if _, err := m.AddEdge(0, 1); err != nil || fired != 2 {
		t.Fatalf("duplicate active AddEdge: err=%v fired=%d, want 2", err, fired)
	}
	m.AddVertex(0)
	if fired != 3 {
		t.Fatalf("AddVertex fired=%d, want 3", fired)
	}
	m.AddVertex(9)
	if fired != 4 {
		t.Fatalf("active AddVertex fired=%d, want 4", fired)
	}
	// A genuinely new active-active edge fires even when it merges
	// nothing new structurally... here it does merge (fresh component).
	if _, err := m.AddEdge(0, 3); err != nil || fired != 5 {
		t.Fatalf("new active AddEdge: err=%v fired=%d, want 5", err, fired)
	}
	if _, err := m.AddEdge(0, 3); err != nil || fired != 5 {
		t.Fatalf("redelivered active AddEdge fired=%d, want 5", fired)
	}
}
