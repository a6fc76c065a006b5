package query

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// SnapshotStore is the pluggable storage tier beneath the Engine's
// singleflight layer: a thread-safe cache of immutable Snapshots. The
// Engine never talks to a concrete cache — it probes, inserts, and
// evicts through this interface — so swapping the in-memory LRU for
// the disk store (or a future shared cache tier) changes one Options
// field, not the engine. Coalescing stays above the store: N
// concurrent misses still run one analysis regardless of the backend.
//
// Contract: values are immutable once inserted; Get may return an
// entry to any number of callers concurrently. Add may decline to
// store (e.g. on a failed disk write) — the value is already on its
// way to the requester, so a declined insert only costs a later
// recomputation. Contains must answer from the store's own index,
// without decoding or fetching: the engine calls it under the lock
// that every cache miss takes.
type SnapshotStore interface {
	Get(key Key) (*Snapshot, bool)
	Add(key Key, s *Snapshot)
	Evict(pred func(Key) bool)
	Contains(key Key) bool
	Len() int
	// Keys enumerates every cached key, in no particular order. The
	// fleet's ownership handoff walks it to find entries whose ring
	// owner changed.
	Keys() []Key
}

// NewMemorySnapshotStore returns the default in-process store: a
// mutex-guarded LRU of at most max snapshots (minimum 1).
func NewMemorySnapshotStore(max int) SnapshotStore {
	return newMemStore[Key, *Snapshot](max)
}

// DiskStore is a SnapshotStore that persists every snapshot in the
// wire format (scalarfield.SaveSnapshot) under one directory, with an
// LRU of decoded "open" entries in front so repeated hits on hot keys
// do not re-decode. Inserts encode to a temp file and rename, so a
// crash never leaves a torn snapshot behind; decode failures are
// treated as misses and the offending file is dropped. On
// construction the directory is scanned and indexed by each file's
// meta section, which is what lets a restarted process serve
// yesterday's analyses without re-running them.
//
// Files the store wrote itself take the trusted decode
// (scalarfield.DecodeSnapshotImageTrusted): once their checksums hold,
// the graph, fields, tree, index and spectrum are views of the file's
// image, with nothing decoded, rebuilt or validated.
//
// Every key of a dataset stores the same graph: a cold hit whose graph
// section is byte-identical to the graph of an open snapshot of the
// same dataset adopts that graph (and, in mmap mode, holds the mapping
// it lives in) instead of serving a copy of its own.
type DiskStore struct {
	dir string
	// mmapGraphs switches cold-hit decodes to the mapped path: a
	// snapshot file is mmap'd whole and its sections viewed in place
	// rather than the file read onto the heap. Lifetimes are
	// reference-counted (see Snapshot.Release and the retain protocol
	// in Get).
	mmapGraphs bool

	// mu guards index, open, and decoding. Encode/decode run outside
	// it, so one key's disk traffic does not serialize other keys'
	// probes. Reference bookkeeping for mapped snapshots runs UNDER it:
	// a Get (and a cold decode, for its donor) retains before
	// unlocking, and the open LRU's eviction hook releases while still
	// locked, so a snapshot can never be unmapped between being found
	// and being retained.
	mu    sync.Mutex
	index map[Key]string // key -> filename (within dir)
	open  *lru[Key, *Snapshot]
	// decoding coalesces concurrent cold hits on one key: the engine's
	// singleflight only covers the compute path, so without this, N
	// simultaneous requests for a disk-indexed key would each decode
	// the file redundantly.
	decoding map[Key]*diskDecode
}

type diskDecode struct {
	done chan struct{} // closed when snap/ok are final
	// waiters counts the Gets that joined this decode (guarded by the
	// store's mu). The leader retains the snapshot once per waiter —
	// plus once for itself — before publishing, so every joiner returns
	// an already-retained snapshot without touching the count itself.
	waiters int
	snap    *Snapshot
	ok      bool
}

// DefaultOpenSnapshots is the open-entry LRU bound used when
// NewDiskStore is given maxOpen <= 0.
const DefaultOpenSnapshots = 8

// snapExt is the snapshot file suffix.
const snapExt = ".snap"

// corruptPrefix marks quarantined snapshot files: a file that failed
// to decode is renamed corrupt-<name> instead of deleted, so an
// operator can inspect what went bad while lookups stop paying a
// doomed re-decode on every request. Quarantined files are skipped by
// the startup scan and never served.
const corruptPrefix = "corrupt-"

// DiskStoreOptions configures a DiskStore beyond its directory.
type DiskStoreOptions struct {
	// MaxOpen bounds the decoded open-entry LRU; <= 0 means
	// DefaultOpenSnapshots.
	MaxOpen int
	// MmapGraphs serves cold hits from one mapping of the whole file
	// instead of a heap copy of it, every array viewed in place: the
	// snapshot stays backed by reclaimable file pages. The mapping is
	// released when the entry that mapped it has left the open LRU,
	// every caller has Released that snapshot, and every snapshot that
	// adopted its graph has been released in turn.
	MmapGraphs bool
}

// NewDiskStore opens (creating if needed) a snapshot directory and
// indexes the snapshots already in it. maxOpen bounds the decoded
// open-entry LRU (<= 0 means DefaultOpenSnapshots). Files that fail to
// yield a meta section are skipped, not deleted: they may belong to a
// newer format version.
func NewDiskStore(dir string, maxOpen int) (*DiskStore, error) {
	return NewDiskStoreOptions(dir, DiskStoreOptions{MaxOpen: maxOpen})
}

// NewDiskStoreOptions is NewDiskStore with the full option set.
func NewDiskStoreOptions(dir string, opts DiskStoreOptions) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("query: creating snapshot dir: %w", err)
	}
	maxOpen := opts.MaxOpen
	if maxOpen <= 0 {
		maxOpen = DefaultOpenSnapshots
	}
	s := &DiskStore{
		dir:        dir,
		mmapGraphs: opts.MmapGraphs,
		index:      make(map[Key]string),
		open:       newLRU[Key, *Snapshot](maxOpen),
		decoding:   make(map[Key]*diskDecode),
	}
	// The open LRU owns each mapped snapshot's creation reference;
	// dropping it when the entry leaves (overflow, predicate eviction,
	// replacement) lets the mapping unmap once outstanding callers
	// Release too. Fires under s.mu.
	s.open.onEvict = func(_ Key, snap *Snapshot) { snap.Release() }
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("query: scanning snapshot dir: %w", err)
	}
	for _, entry := range entries {
		name := entry.Name()
		if entry.IsDir() {
			continue
		}
		// A tmp- file is a crash mid-Add (encode or rename never
		// finished): harmless but otherwise immortal, so reap it here.
		if strings.HasPrefix(name, "tmp-") {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		// Quarantined corrupt files are kept for inspection but never
		// indexed or served.
		if strings.HasPrefix(name, corruptPrefix) {
			continue
		}
		if !strings.HasSuffix(name, snapExt) {
			continue
		}
		key, err := readSnapshotFileKey(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		s.index[key] = name
	}
	return s, nil
}

// snapshotKeyPrefix is how much of a snapshot file the index scan
// reads: SaveSnapshot writes the meta section first, so the key of
// every file the store wrote sits in its first bytes.
const snapshotKeyPrefix = 4 << 10

// readSnapshotFileKey decodes a snapshot file's key from one read of
// its first snapshotKeyPrefix bytes, and from the whole file only when
// the meta section does not fit in them.
func readSnapshotFileKey(path string) (Key, error) {
	f, err := os.Open(path)
	if err != nil {
		return Key{}, err
	}
	defer f.Close()
	// A short read (a small file, or a failed read) decodes the bytes
	// that did arrive: the key is in them, or the decode fails.
	prefix := make([]byte, snapshotKeyPrefix)
	n, _ := f.ReadAt(prefix, 0)
	key, err := DecodeSnapshotKey(prefix[:n])
	if err != nil && n == len(prefix) {
		var whole []byte
		if whole, err = os.ReadFile(path); err == nil {
			key, err = DecodeSnapshotKey(whole)
		}
	}
	return key, err
}

// Get probes the open-entry LRU, then the on-disk index, decoding on
// an index hit. Concurrent Gets for one key coalesce on a single
// decode. A file that no longer decodes (corruption, deletion behind
// our back) is dropped from the index and reported as a miss.
//
// Every returned snapshot is retained on the caller's behalf — the
// caller owes one Release, a no-op for heap-backed snapshots. The
// retain happens under s.mu, the same lock the open LRU's eviction
// hook releases under, so a mapped snapshot found in the cache cannot
// be unmapped before its caller's reference exists.
func (s *DiskStore) Get(key Key) (*Snapshot, bool) {
	s.mu.Lock()
	if snap, ok := s.open.get(key); ok {
		snap.Retain()
		s.mu.Unlock()
		return snap, true
	}
	name, ok := s.index[key]
	if !ok {
		s.mu.Unlock()
		return nil, false
	}
	if d, inflight := s.decoding[key]; inflight {
		// The leader retains for us (it counts waiters before
		// publishing), so the snapshot behind done is already ours.
		d.waiters++
		s.mu.Unlock()
		<-d.done
		return d.snap, d.ok
	}
	d := &diskDecode{done: make(chan struct{})}
	s.decoding[key] = d
	s.mu.Unlock()

	d.snap, d.ok = s.decodeFile(key, name)
	s.mu.Lock()
	if d.ok {
		// The decode's creation reference transfers to the open LRU;
		// then one reference per Get that is about to return this
		// snapshot: the leader itself plus every coalesced waiter.
		// Counted under the same lock waiters increment under, and
		// before done closes, so nobody returns un-retained.
		s.open.add(key, d.snap)
		for i := 0; i <= d.waiters; i++ {
			d.snap.Retain()
		}
	}
	delete(s.decoding, key)
	s.mu.Unlock()
	close(d.done)
	return d.snap, d.ok
}

// decodeFile reads and decodes one snapshot file, verifying the
// decoded identity: filenames are hashes, and a hash collision must
// read as a miss, not as the wrong analysis. A file that fails to
// decode is quarantined, not re-decoded on the next lookup; a file
// that fails to open (deleted behind our back) is simply forgotten.
//
// The file is one this store wrote, so it takes the trusted decode:
// its checksums are checked and its arrays viewed, not rebuilt.
//
// The most recently used open snapshot of the key's dataset is the
// decode's donor: retained under s.mu (so the eviction hook cannot
// unmap it first), its graph is offered to the decoder, and a file
// whose graph section repeats it byte for byte adopts it unverified,
// holding a reference on the mapping the graph lives in (see
// decodeSnapshotFile).
func (s *DiskStore) decodeFile(key Key, name string) (*Snapshot, bool) {
	s.mu.Lock()
	donor := s.donor(key.Dataset)
	if donor != nil {
		donor.Retain()
	}
	s.mu.Unlock()
	snap, err := decodeSnapshotFile(filepath.Join(s.dir, name), s.mmapGraphs, true, donor)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.drop(key, name)
		} else {
			s.quarantine(key, name, err)
		}
		return nil, false
	}
	if snap.Key != key {
		snap.Release()
		s.quarantine(key, name, fmt.Errorf("decoded key %v does not match %v", snap.Key, key))
		return nil, false
	}
	return snap, true
}

// donor returns the most recently used open snapshot of dataset, or
// nil, without promoting it. Callers hold s.mu.
func (s *DiskStore) donor(dataset string) *Snapshot {
	for el := s.open.order.Front(); el != nil; el = el.Next() {
		if entry := el.Value.(*lruEntry[Key, *Snapshot]); entry.key.Dataset == dataset {
			return entry.val
		}
	}
	return nil
}

// drop forgets an index entry (if it still names the same file) and
// removes the file.
func (s *DiskStore) drop(key Key, name string) {
	s.mu.Lock()
	if cur, ok := s.index[key]; ok && cur == name {
		delete(s.index, key)
	}
	s.mu.Unlock()
	os.Remove(filepath.Join(s.dir, name))
}

// quarantine renames a corrupt snapshot file to corrupt-<name> and
// forgets its index entry, so the bad bytes are kept for inspection
// but never decoded again — without it, every lookup of the key would
// re-read and re-fail on the same file. The index delete is
// first-wins under the lock, so exactly one goroutine renames and
// logs per file even under concurrent lookups.
func (s *DiskStore) quarantine(key Key, name string, cause error) {
	s.mu.Lock()
	cur, ok := s.index[key]
	if ok && cur == name {
		delete(s.index, key)
	}
	s.mu.Unlock()
	if !ok || cur != name {
		return // another lookup already quarantined (or Add replaced) it
	}
	src := filepath.Join(s.dir, name)
	if err := os.Rename(src, filepath.Join(s.dir, corruptPrefix+name)); err != nil {
		// Can't even rename it: remove so it cannot wedge the key.
		os.Remove(src)
	}
	log.Printf("query: quarantined corrupt snapshot file %s (key %v): %v", name, key, cause)
}

// Add encodes the snapshot to a temp file and renames it into place.
// On an encode or write failure the snapshot is still kept in the
// open-entry LRU — persistence is best-effort, serving is not.
func (s *DiskStore) Add(key Key, snap *Snapshot) {
	name := SnapshotFileName(key)
	persisted := false
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err == nil {
		encErr := EncodeSnapshot(tmp, snap)
		closeErr := tmp.Close()
		if encErr == nil && closeErr == nil &&
			os.Rename(tmp.Name(), filepath.Join(s.dir, name)) == nil {
			persisted = true
		} else {
			os.Remove(tmp.Name())
		}
	}
	s.mu.Lock()
	if persisted {
		s.index[key] = name
	}
	// The LRU takes its own reference (a no-op for the heap-backed
	// snapshots analyses produce); the caller keeps theirs.
	snap.Retain()
	s.open.add(key, snap)
	s.mu.Unlock()
}

// Evict removes matching entries from the open LRU, the index, and the
// disk.
func (s *DiskStore) Evict(pred func(Key) bool) {
	var victims []string
	s.mu.Lock()
	s.open.evict(pred)
	for key, name := range s.index {
		if pred(key) {
			delete(s.index, key)
			victims = append(victims, name)
		}
	}
	s.mu.Unlock()
	for _, name := range victims {
		os.Remove(filepath.Join(s.dir, name))
	}
}

// DropOpen evicts every decoded entry from the open LRU without
// touching the index or the files on disk: resident heap copies become
// collectable and file mappings unmap once outstanding callers Release
// theirs (a mapping shared by adopting snapshots unmaps after the last
// of them). The next Get re-decodes from disk — the cache stays warm
// on disk, cold in memory — and, with no open snapshot left to donate
// a graph, verifies its graph section in full. Use it to shed memory
// under pressure or to force the cold-hit path deterministically
// (benchmarks, tests).
func (s *DiskStore) DropOpen() {
	s.mu.Lock()
	s.open.evict(func(Key) bool { return true })
	s.mu.Unlock()
}

// Contains reports whether the key is indexed on disk or open in
// memory (a failed persist still serves from the open LRU).
func (s *DiskStore) Contains(key Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[key]; ok {
		return true
	}
	_, ok := s.open.items[key]
	return ok
}

// Keys enumerates every distinct cached key — indexed on disk or
// resident in the open LRU.
func (s *DiskStore) Keys() []Key {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Key, 0, len(s.index))
	for key := range s.index {
		out = append(out, key)
	}
	for key := range s.open.items {
		if _, onDisk := s.index[key]; !onDisk {
			out = append(out, key)
		}
	}
	return out
}

// Len reports the number of distinct cached keys.
func (s *DiskStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.index)
	for key := range s.open.items {
		if _, onDisk := s.index[key]; !onDisk {
			n++
		}
	}
	return n
}

// SnapshotFileName derives a DiskStore's stable filename for a key
// from its shard string. Collisions are tolerated (Get verifies the
// decoded key), so a 64-bit hash is plenty. Exported for operational
// tooling and the fault-injection harness, which corrupts specific
// entries by path.
func SnapshotFileName(key Key) string {
	h := fnv.New64a()
	h.Write([]byte(key.ShardString()))
	return fmt.Sprintf("%016x%s", h.Sum64(), snapExt)
}
