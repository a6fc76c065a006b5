package query

import (
	"bytes"
	"sync"
	"testing"
)

// The mmap oracle: a snapshot served through the disk store's
// mmap'd cold-hit path must answer the complete operation vocabulary
// byte-identically to its heap-built twin. Run under -race (CI does),
// the concurrent section also proves the mapped arena is safe to read
// from many resolver goroutines at once.

// mmapStoreOver persists snaps in a fresh directory and opens a
// second store over it with MmapGraphs enabled, so the first Get of
// each key is a cold hit.
func mmapStoreOver(t *testing.T, snaps ...*Snapshot) *DiskStore {
	t.Helper()
	dir := t.TempDir()
	seed, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range snaps {
		seed.Add(snap.Key, snap)
	}
	store, err := NewDiskStoreOptions(dir, DiskStoreOptions{MmapGraphs: true})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// mappedColdHit stores snap in a fresh directory, then serves it back
// through a second store with MmapGraphs enabled — a guaranteed cold
// hit that maps and verifies the graph section, since no open
// snapshot can donate a graph.
func mappedColdHit(t *testing.T, key Key, snap *Snapshot) (*DiskStore, *Snapshot) {
	t.Helper()
	store := mmapStoreOver(t, snap)
	mapped, ok := store.Get(key)
	if !ok {
		t.Fatal("mmap store misses the persisted snapshot")
	}
	return store, mapped
}

func TestMmapSnapshotServesIdenticalResults(t *testing.T) {
	donorKey := Key{Dataset: "tiny", Measure: "degree"}
	for _, key := range []Key{
		{Dataset: "tiny", Measure: "kcore", Color: "degree"},
		{Dataset: "tiny", Measure: "ktruss"},
		{Dataset: "tiny", Measure: "degree", Bins: 3},
	} {
		e := testEngine(t, Options{})
		snap, err := e.Snapshot(key)
		if err != nil {
			t.Fatal(err)
		}
		_, mapped := mappedColdHit(t, key, snap)
		if mapped.ref == nil {
			t.Fatalf("key %+v: cold hit with MmapGraphs did not produce a mapped snapshot", key)
		}
		want := resolveJSON(t, e, snap)
		got := resolveJSON(t, e, mapped)
		if !bytes.Equal(want, got) {
			t.Fatalf("key %+v: mmap-served snapshot answers differently:\nwant %s\ngot  %s", key, want, got)
		}
		mapped.Release()

		// The adopting input: served cold while another key of the
		// dataset is open, the key's identical graph section is
		// compared, not verified, and the donor's graph is served
		// beside the key's own mapping, which its fields and tree view.
		donorSnap, err := e.Snapshot(donorKey)
		if err != nil {
			t.Fatal(err)
		}
		store := mmapStoreOver(t, donorSnap, snap)
		donor, ok := store.Get(donorKey)
		if !ok {
			t.Fatal("mmap store misses the donor snapshot")
		}
		adopted, ok := store.Get(key)
		if !ok {
			t.Fatalf("key %+v: mmap store misses the persisted snapshot beside a donor", key)
		}
		if adopted.Graph != donor.Graph || adopted.ref == nil || adopted.ref == donor.ref {
			t.Fatalf("key %+v: cold hit beside an open donor did not adopt its graph beside a mapping of its own", key)
		}
		if got := resolveJSON(t, e, adopted); !bytes.Equal(want, got) {
			t.Fatalf("key %+v: adopting snapshot answers differently:\nwant %s\ngot  %s", key, want, got)
		}
		adopted.Release()
		donor.Release()
		store.DropOpen()
	}
}

// TestMmapSnapshotConcurrentResolves hammers one mapped snapshot from
// many goroutines while the open LRU entry is dropped mid-flight: the
// caller's reference must keep the mapping alive until the last
// Release, and every resolver must read consistent bytes (-race
// guards the rest).
func TestMmapSnapshotConcurrentResolves(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore", Color: "degree"}
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	store, mapped := mappedColdHit(t, key, snap)
	want := resolveJSON(t, e, mapped)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if got := resolveJSON(t, e, mapped); !bytes.Equal(want, got) {
					t.Error("concurrent resolve over the mapped snapshot diverged")
					return
				}
			}
		}()
	}
	// Drop the LRU's reference while resolvers are mid-read: the
	// mapping must survive on the caller's reference alone.
	store.DropOpen()
	wg.Wait()
	mapped.Release()
}

// TestDiskStoreMappedRefcounting pins the reference protocol end to
// end using the package-internal counter: the LRU owns one reference
// per entry, every Get hands the caller one more, a cold hit that
// adopts an open snapshot's graph maps its own file and holds one
// reference on the donor's mapping until its own count reaches zero,
// DropOpen releases the LRU's, and each mapping is released exactly
// once, after the last holder balances.
func TestDiskStoreMappedRefcounting(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore"}
	adoptKey := Key{Dataset: "tiny", Measure: "degree"}
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	if snap.ref != nil {
		t.Fatal("fresh analysis snapshot unexpectedly carries a mapping reference")
	}
	adoptSnap, err := e.Snapshot(adoptKey)
	if err != nil {
		t.Fatal(err)
	}
	store := mmapStoreOver(t, snap, adoptSnap)
	mapped, ok := store.Get(key)
	if !ok {
		t.Fatal("mmap store misses the persisted snapshot")
	}
	if got := mapped.ref.refs.Load(); got != 2 {
		t.Fatalf("after cold hit: %d references, want 2 (LRU + caller)", got)
	}

	// A warm Get from the open LRU adds one reference per caller.
	again, ok := store.Get(key)
	if !ok {
		t.Fatal("warm Get missed")
	}
	if again != mapped {
		t.Fatal("warm Get did not reuse the open entry")
	}
	if got := mapped.ref.refs.Load(); got != 3 {
		t.Fatalf("after warm Get: %d references, want 3", got)
	}
	again.Release()

	// A cold hit on a second key of the dataset adopts the open
	// snapshot's graph: it counts its own mapping (LRU + caller) and
	// holds one reference on the donor's.
	fired := 0
	unmap := mapped.ref.release
	mapped.ref.release = func() { fired++; unmap() }
	adopted, ok := store.Get(adoptKey)
	if !ok {
		t.Fatal("adopting cold hit missed")
	}
	if adopted.Graph != mapped.Graph || adopted.ref == nil || adopted.ref == mapped.ref {
		t.Fatal("adopting cold hit did not serve the open snapshot's graph beside a mapping of its own")
	}
	if got := mapped.ref.refs.Load(); got != 3 {
		t.Fatalf("donor after adopting hit: %d references, want 3 (LRU + caller + adopter)", got)
	}
	if got := adopted.ref.refs.Load(); got != 2 {
		t.Fatalf("adopter after cold hit: %d references, want 2 (LRU + caller)", got)
	}
	adoptFired := 0
	adoptUnmap := adopted.ref.release
	adopted.ref.release = func() { adoptFired++; adoptUnmap() }

	// Dropping the open LRU releases both entries' references but must
	// not unmap while either caller still holds one: the graph must
	// stay readable.
	store.DropOpen()
	if got := mapped.ref.refs.Load(); got != 2 {
		t.Fatalf("donor after DropOpen: %d references, want 2 (caller + adopter)", got)
	}
	if mapped.Graph.NumVertices() != testGraph().NumVertices() {
		t.Fatal("mapped graph unreadable after LRU drop")
	}
	deg := mapped.Graph.Degree(0)
	if deg != testGraph().Degree(0) {
		t.Fatalf("mapped graph degree(0) = %d after LRU drop, want %d", deg, testGraph().Degree(0))
	}
	mapped.Release()
	if fired != 0 {
		t.Fatal("donor mapping released while the adopting snapshot still serves its graph")
	}
	if adopted.Graph.Degree(0) != deg || adopted.Values[0] != adoptSnap.Values[0] {
		t.Fatal("adopted snapshot unreadable after the donor's caller released")
	}
	adopted.Release()
	if got := mapped.ref.refs.Load(); got != 0 {
		t.Fatalf("donor after final Release: %d references, want 0", got)
	}
	if fired != 1 || adoptFired != 1 {
		t.Fatalf("donor mapping released %d times, adopter's %d, want exactly 1 each", fired, adoptFired)
	}

	// The next Get re-decodes: a fresh snapshot with a fresh mapping.
	fresh, ok := store.Get(key)
	if !ok {
		t.Fatal("re-decode after unmap missed")
	}
	if fresh == mapped {
		t.Fatal("store served the released snapshot again")
	}
	if fresh.ref == nil || fresh.ref == mapped.ref || fresh.ref.refs.Load() != 2 {
		t.Fatal("re-decoded snapshot reference bookkeeping wrong")
	}
	fresh.Release()
	store.DropOpen()
}

// TestDiskStoreCoalescedWaitersEachOwnAReference: N concurrent cold
// Gets share one decode, and each of the N callers (leader and
// waiters alike) must receive its own reference — N Releases later the
// LRU's reference is still the only one left.
func TestDiskStoreCoalescedWaitersEachOwnAReference(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore"}
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	seed, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	seed.Add(key, snap)
	store, err := NewDiskStoreOptions(dir, DiskStoreOptions{MmapGraphs: true})
	if err != nil {
		t.Fatal(err)
	}

	const callers = 8
	var wg sync.WaitGroup
	snaps := make([]*Snapshot, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, ok := store.Get(key)
			if !ok {
				t.Error("coalesced Get missed")
				return
			}
			snaps[i] = got
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if snaps[i] != snaps[0] {
			t.Fatal("coalesced Gets produced different snapshots")
		}
	}
	if got := snaps[0].ref.refs.Load(); got != callers+1 {
		t.Fatalf("after %d coalesced Gets: %d references, want %d (callers + LRU)", callers, got, callers+1)
	}
	for _, s := range snaps {
		s.Release()
	}
	if got := snaps[0].ref.refs.Load(); got != 1 {
		t.Fatalf("after all callers released: %d references, want 1 (LRU)", got)
	}
	store.DropOpen()
	if got := snaps[0].ref.refs.Load(); got != 0 {
		t.Fatalf("after DropOpen: %d references, want 0", got)
	}
}

// TestDiskStoreAddReplacementReleasesOldMapping: Adding over an open
// mapped entry must release the replaced snapshot's LRU reference so
// the old mapping can unmap.
func TestDiskStoreAddReplacementReleasesOldMapping(t *testing.T) {
	key := Key{Dataset: "tiny", Measure: "kcore"}
	e := testEngine(t, Options{})
	snap, err := e.Snapshot(key)
	if err != nil {
		t.Fatal(err)
	}
	store, mapped := mappedColdHit(t, key, snap)
	mapped.Release() // LRU reference remains
	if got := mapped.ref.refs.Load(); got != 1 {
		t.Fatalf("before replacement: %d references, want 1", got)
	}
	store.Add(key, snap) // heap snapshot replaces the mapped entry
	if got := mapped.ref.refs.Load(); got != 0 {
		t.Fatalf("after replacement: %d references, want 0 (old mapping released)", got)
	}
	store.DropOpen()
}

// TestDiskStoreAdoptionChainPinsOneGraphMapping: with a small open LRU
// cycling the keys of one dataset, every cold hit adopts the graph of
// the most recent open snapshot, which itself adopted it. Each adopter
// must hold the mapping the graph lives in, not its donor's, or every
// mapping of the chain would stay pinned while any later snapshot is
// open: at any time only the open entries' own mappings and the one
// graph mapping may be live.
func TestDiskStoreAdoptionChainPinsOneGraphMapping(t *testing.T) {
	e := testEngine(t, Options{})
	var snaps []*Snapshot
	var keys []Key
	for _, m := range []string{"kcore", "degree", "triangles", "clustering"} {
		key := Key{Dataset: "tiny", Measure: m}
		snap, err := e.Snapshot(key)
		if err != nil {
			t.Fatal(err)
		}
		keys, snaps = append(keys, key), append(snaps, snap)
	}
	dir := t.TempDir()
	seed, err := NewDiskStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range keys {
		seed.Add(key, snaps[i])
	}
	const maxOpen = 2
	store, err := NewDiskStoreOptions(dir, DiskStoreOptions{MaxOpen: maxOpen, MmapGraphs: true})
	if err != nil {
		t.Fatal(err)
	}
	var served []*Snapshot
	for i := 0; i < 5*len(keys); i++ {
		snap, ok := store.Get(keys[i%len(keys)])
		if !ok {
			t.Fatal("cold hit missed")
		}
		snap.Release()
		served = append(served, snap)
		live := 0
		for _, s := range served {
			if s.ref.refs.Load() > 0 {
				live++
			}
		}
		if live > maxOpen+1 {
			t.Fatalf("after %d cold hits: %d mappings live, want at most %d (open entries + the graph's)", i+1, live, maxOpen+1)
		}
	}
	store.DropOpen()
	for i, s := range served {
		if got := s.ref.refs.Load(); got != 0 {
			t.Fatalf("snapshot %d holds %d references after DropOpen, want 0", i, got)
		}
	}
}
