package query

import (
	"container/list"
	"context"
	"fmt"
	"sync"
)

// kvStore is the seam between the singleflight layer and snapshot
// storage: a thread-safe get/add/evict cache. The in-memory LRU
// (memStore) is the default; the engine's snapshot cache accepts any
// SnapshotStore — which is exactly kvStore[Key, *Snapshot] — so the
// same coalescing sits above an in-process LRU, a disk store, or a
// future shared cache tier without the engine changing.
type kvStore[K comparable, V any] interface {
	// Get returns the cached value and whether it was present,
	// promoting the entry in recency-based implementations.
	Get(key K) (V, bool)
	// Add inserts or refreshes an entry, evicting per the store's own
	// policy. Implementations may decline to store (a failed disk
	// write, a stale-generation guard); Add has no error to return
	// because the computed value is already on its way to the caller —
	// a declined insert only costs a recomputation later.
	Add(key K, val V)
	// Evict removes every entry whose key satisfies pred.
	Evict(pred func(K) bool)
	// Contains reports presence without promoting, decoding or
	// fetching: the group calls it under its flight lock.
	Contains(key K) bool
	// Len reports the number of cached entries.
	Len() int
}

// lru is a plain intrusive LRU map. Not safe for concurrent use; the
// owning store's mutex guards it.
type lru[K comparable, V any] struct {
	max   int
	order *list.List // front = most recently used
	items map[K]*list.Element
	// onEvict, when set, fires for every value leaving the cache —
	// overflow eviction, predicate eviction, and replacement by add —
	// under the owner's lock. The disk store uses it to drop its
	// reference on snapshots backed by file mappings.
	onEvict func(K, V)
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](max int) *lru[K, V] {
	if max < 1 {
		max = 1
	}
	return &lru[K, V]{max: max, order: list.New(), items: make(map[K]*list.Element)}
}

func (c *lru[K, V]) get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

func (c *lru[K, V]) add(key K, val V) {
	if el, ok := c.items[key]; ok {
		entry := el.Value.(*lruEntry[K, V])
		old := entry.val
		entry.val = val
		c.order.MoveToFront(el)
		if c.onEvict != nil {
			c.onEvict(key, old)
		}
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		entry := oldest.Value.(*lruEntry[K, V])
		delete(c.items, entry.key)
		if c.onEvict != nil {
			c.onEvict(entry.key, entry.val)
		}
	}
}

func (c *lru[K, V]) evict(pred func(K) bool) {
	for key, el := range c.items {
		if pred(key) {
			c.order.Remove(el)
			delete(c.items, key)
			if c.onEvict != nil {
				c.onEvict(key, el.Value.(*lruEntry[K, V]).val)
			}
		}
	}
}

func (c *lru[K, V]) len() int { return c.order.Len() }

// memStore is the mutex-guarded in-memory LRU kvStore.
type memStore[K comparable, V any] struct {
	mu    sync.Mutex
	cache *lru[K, V]
}

func newMemStore[K comparable, V any](max int) *memStore[K, V] {
	return &memStore[K, V]{cache: newLRU[K, V](max)}
}

func (s *memStore[K, V]) Get(key K) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.get(key)
}

func (s *memStore[K, V]) Add(key K, val V) {
	s.mu.Lock()
	s.cache.add(key, val)
	s.mu.Unlock()
}

func (s *memStore[K, V]) Evict(pred func(K) bool) {
	s.mu.Lock()
	s.cache.evict(pred)
	s.mu.Unlock()
}

func (s *memStore[K, V]) Contains(key K) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.cache.items[key]
	return ok
}

func (s *memStore[K, V]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

func (s *memStore[K, V]) Keys() []K {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]K, 0, len(s.cache.items))
	for key := range s.cache.items {
		out = append(out, key)
	}
	return out
}

// group is singleflight coalescing above a kvStore: Do returns the
// cached value for key, or joins the in-flight computation for it, or
// — when neither exists — runs compute itself. N concurrent Do calls
// for one uncached key run compute exactly once; the other N-1 block
// until the leader finishes and share its result. Failed computations
// are not cached, so a transient error does not poison the key: the
// next Do retries.
//
// The group's own mutex guards only the flight map; the store carries
// its own synchronization. That split is what lets a slow store (disk
// decode on hit, disk encode on insert) serve other keys concurrently
// instead of serializing every cache probe behind one lock.
//
// Evicted values are simply dropped. Values handed out earlier remain
// valid — everything cached here is immutable — so eviction only costs
// a recomputation on the next request.
type group[K comparable, V any] struct {
	mu     sync.Mutex // guards flight only
	cache  kvStore[K, V]
	flight map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

func newGroup[K comparable, V any](maxEntries int) *group[K, V] {
	return newGroupOver[K, V](newMemStore[K, V](maxEntries))
}

// newGroupOver builds the coalescing layer above a caller-supplied
// store (the engine's pluggable SnapshotStore path).
func newGroupOver[K comparable, V any](store kvStore[K, V]) *group[K, V] {
	return &group[K, V]{
		cache:  store,
		flight: make(map[K]*flightCall[V]),
	}
}

// Do implements cached singleflight as described on group, waiting
// without a deadline.
func (g *group[K, V]) Do(key K, compute func() (V, error)) (V, error) {
	return g.DoCtx(context.Background(), key, compute)
}

// DoCtx is Do with a bounded wait: when ctx ends before the flight
// completes, the caller gets ctx's error immediately — but the flight
// itself is NOT cancelled. It runs on its own goroutine, detached from
// every requester, so an abandoned request (a client that hung up, a
// deadline that fired) cannot pin or kill a computation other waiters
// are still counting on; the result lands in the cache for whoever
// asks next. Compute work is bounded by the engine's admission gate,
// not by request lifetimes.
func (g *group[K, V]) DoCtx(ctx context.Context, key K, compute func() (V, error)) (V, error) {
	if v, ok := g.cache.Get(key); ok {
		return v, nil
	}
	c, stored := g.join(key, compute, true)
	if stored {
		if v, ok := g.cache.Get(key); ok {
			return v, nil
		}
		// Gone again (evicted, or dropped as stale): take the flight.
		c, _ = g.join(key, compute, false)
	}
	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err()
	}
}

// join returns key's flight, starting one if none is running. With
// probe set it first re-checks the store under the flight lock: a
// flight that completed after the caller's miss has left the map but
// stored its result, and then join reports stored instead. The check
// is Contains, which never decodes, so a slow store Get (a disk
// decode) never runs while the lock is held.
func (g *group[K, V]) join(key K, compute func() (V, error), probe bool) (c *flightCall[V], stored bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.flight[key]; ok {
		return c, false
	}
	if probe && g.cache.Contains(key) {
		return nil, true
	}
	c = &flightCall[V]{done: make(chan struct{})}
	g.flight[key] = c
	go g.lead(key, c, compute)
	return c, false
}

// lead runs one flight's computation on its own goroutine. The flight
// entry is cleaned up even if compute panics — a leaked entry would
// wedge every waiter and future requester of this key forever — and
// the panic is converted to an error for all waiters rather than
// crashing the process (the leader no longer runs on an HTTP handler
// goroutine that net/http would recover).
func (g *group[K, V]) lead(key K, c *flightCall[V], compute func() (V, error)) {
	completed := false
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("query: computation panicked: %v", r)
		} else if !completed {
			c.err = fmt.Errorf("query: computation panicked")
		}
		if completed && c.err == nil {
			// Store insertion happens before the flight entry is
			// removed, so join's re-probe can never miss both.
			g.cache.Add(key, c.val)
		}
		g.mu.Lock()
		delete(g.flight, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = compute()
	completed = true
}

// evict removes every cached entry whose key satisfies pred. In-flight
// computations are left alone: they complete and cache their result,
// which a subsequent evict may then remove. (The engine's snapshot
// path closes even that window with its generation guard — see
// Engine.Invalidate.)
func (g *group[K, V]) evict(pred func(K) bool) {
	g.cache.Evict(pred)
}

// cached reports whether key currently has a cached value, without
// promoting it.
func (g *group[K, V]) cached(key K) bool {
	return g.cache.Contains(key)
}

// size reports the number of cached entries.
func (g *group[K, V]) size() int {
	return g.cache.Len()
}
