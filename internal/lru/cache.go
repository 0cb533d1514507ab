package lru

import (
	"slices"
	"sync"
)

// Stats counts cache traffic.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
}

// Cache is a capacity-bounded, reference-counted block cache: Core plus
// locking and statistics. Eviction is exactly global LRU among clean,
// unpinned entries.
type Cache[E Entry] struct {
	mu                      sync.Mutex
	core                    Core[E]
	capacity                int
	hits, misses, evictions int64
}

// New creates a cache bounded at capacity entries (values < 1 mean one).
func New[E Entry](capacity int) *Cache[E] {
	return &Cache[E]{capacity: max(capacity, 1)}
}

// GetOrInsert returns the entry for key with its reference count
// incremented, creating it with mk on a miss. On a miss the cache evicts
// clean, unpinned entries in LRU order until under capacity (entries
// stay resident while everything is pinned or dirty), then inserts the
// new entry with one reference. mk runs under the cache lock and must
// only allocate.
func (c *Cache[E]) GetOrInsert(key int64, mk func() E) (e E, hit bool) {
	c.mu.Lock()
	if e, ok := c.core.Get(key); ok {
		e.LRUNode().refs.Add(1)
		c.hits++
		c.mu.Unlock()
		return e, true
	}
	c.misses++
	for c.core.Len() >= c.capacity {
		if _, ok := c.core.EvictScan(nil); !ok {
			break
		}
		c.evictions++
	}
	e = mk()
	e.LRUNode().refs.Store(1)
	c.core.Add(key, e)
	c.mu.Unlock()
	return e, false
}

// Release drops one reference. It reports false on a release of an
// already-unreferenced entry (a caller bug).
func (c *Cache[E]) Release(e E) bool {
	n := e.LRUNode()
	if n.refs.Add(-1) < 0 {
		n.refs.Add(1)
		return false
	}
	return true
}

// MarkDirty flags e dirty and records it in the dirty set.
func (c *Cache[E]) MarkDirty(e E) {
	n := e.LRUNode()
	c.mu.Lock()
	if cur, ok := c.core.Peek(n.key); ok && cur.LRUNode() == n {
		c.core.MarkDirty(n.key)
	} else {
		// The entry was dropped from the cache (read-error path); keep
		// the per-entry flag truthful for the holder of the reference.
		n.dirty.Store(true)
	}
	c.mu.Unlock()
}

// ClearDirty marks e clean, removing it from the dirty set.
func (c *Cache[E]) ClearDirty(e E) {
	n := e.LRUNode()
	c.mu.Lock()
	if cur, ok := c.core.Peek(n.key); ok && cur.LRUNode() == n {
		c.core.ClearDirty(n.key)
	} else {
		n.dirty.Store(false)
	}
	c.mu.Unlock()
}

// Peek returns the resident entry for key without taking a reference or
// touching recency — a coherence probe for the direct-I/O path. The
// caller gets no pin: the entry may be evicted concurrently, so it must
// only read state that stays valid after unlinking (the data slice, the
// fill state).
func (c *Cache[E]) Peek(key int64) (e E, ok bool) {
	c.mu.Lock()
	e, ok = c.core.Peek(key)
	c.mu.Unlock()
	return e, ok
}

// DropClean removes every clean, unpinned entry (drop_caches for a
// block cache) and reports how many were dropped. Dirty or referenced
// entries stay resident.
func (c *Cache[E]) DropClean() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.DropClean()
}

// Keys snapshots every resident key in ascending order (diagnostics and
// cache-residency tests).
func (c *Cache[E]) Keys() []int64 {
	var out []int64
	c.mu.Lock()
	c.core.ForEach(func(key int64, _ E) bool {
		out = append(out, key)
		return true
	})
	c.mu.Unlock()
	slices.Sort(out)
	return out
}

// Drop unconditionally removes the entry for key (read-error path),
// regardless of references or dirtiness. It does not count as an
// eviction.
func (c *Cache[E]) Drop(key int64) (E, bool) {
	c.mu.Lock()
	e, _, ok := c.core.Remove(key)
	c.mu.Unlock()
	return e, ok
}

// DirtyEntries snapshots every dirty entry in ascending key order, so
// sync paths visit exactly the dirty set in a deterministic order.
func (c *Cache[E]) DirtyEntries() []E {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.DirtyEntries()
}

// Len reports the number of cached entries.
func (c *Cache[E]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.core.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *Cache[E]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// Reset drops every entry after check approves each one (InvalidateAll:
// check rejects referenced buffers). The lock is held for the duration,
// so the check-then-clear is atomic with respect to cache users.
// Statistics are preserved.
func (c *Cache[E]) Reset(check func(E) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if check != nil {
		var err error
		c.core.ForEach(func(_ int64, e E) bool {
			err = check(e)
			return err == nil
		})
		if err != nil {
			return err
		}
	}
	c.core.Clear()
	return nil
}
