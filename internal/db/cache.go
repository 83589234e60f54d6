package db

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mighash/internal/npn"
	"mighash/internal/tt"
)

// cacheShardCount is a power of two so shard selection is a mask. 64
// shards keep lock contention negligible even with dozens of rewriting
// workers hammering the cache (the engine's batch runner shares one cache
// across all of them).
const cacheShardCount = 64

// Cache memoizes the functional-hashing hot path — NPN canonicalization
// of a cut function plus the database lookup of its class — behind a
// sharded, concurrency-safe map. One cache may be shared by any number of
// goroutines and across any number of rewriting passes; repeated cut
// functions then cost a single read-locked map hit instead of a
// canonicalization and hash lookup.
//
// A Cache stores *Entry pointers of the DB it was populated through, so
// it must not be reused across different DB instances. Snapshot/Restore
// (persist.go) serialize a cache across processes by rebinding entries
// through the loading DB, and SetLimit (evict.go) bounds its footprint.
type Cache struct {
	hits   atomic.Uint64
	misses atomic.Uint64
	shards [cacheShardCount]cacheShard
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[uint16]cacheVal
	// Second-chance eviction state (evict.go): the per-shard entry bound
	// (0 = unbounded), the clock ring of keys in insertion order with its
	// hand, and the reference bitmap indexed by key>>6 (1024 possible keys
	// per shard under the low-6-bit shard split).
	limit int
	clock[uint16]
	ref [(1 << 16) / cacheShardCount / 64]uint64
	// Pad shards to their own cache lines so concurrent workers on
	// different shards do not false-share the mutexes.
	_ [64]byte
}

// cacheVal is one memoized lookup result. ok is false for functions whose
// NPN class is absent from the DB (only possible with partial databases).
type cacheVal struct {
	entry *Entry
	t     npn.Transform
	ok    bool
}

// NewCache returns an empty cache ready for concurrent use.
func NewCache() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint16]cacheVal)
	}
	return c
}

func (c *Cache) shard(key uint16) *cacheShard {
	// Keys are raw 4-variable truth tables; their low bits are as good a
	// hash as any over the benchmark cut distributions.
	return &c.shards[key&(cacheShardCount-1)]
}

// Hits returns the number of lookups served from the cache.
func (c *Cache) Hits() uint64 { return c.hits.Load() }

// Misses returns the number of lookups that fell through to the DB.
func (c *Cache) Misses() uint64 { return c.misses.Load() }

// Len returns the number of distinct functions cached.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Reset drops all entries and zeroes the counters. The entry bound set
// by SetLimit survives a Reset.
func (c *Cache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[uint16]cacheVal)
		s.clock = clock[uint16]{ring: s.ring[:0]}
		s.ref = [len(s.ref)]uint64{}
		s.mu.Unlock()
	}
	c.hits.Store(0)
	c.misses.Store(0)
}

func (c *Cache) String() string {
	h, m := c.Hits(), c.Misses()
	rate := 0.0
	if h+m > 0 {
		rate = float64(h) / float64(h+m)
	}
	return fmt.Sprintf("npn-cache: %d entries, %d hits / %d misses (%.1f%%)", c.Len(), h, m, 100*rate)
}

// LookupCached is Lookup memoized through c: identical in result, with
// the canonicalization and class lookup skipped on a hit. hit reports
// whether the result came from the cache, so callers can attribute their
// own per-pass counters without racing on the shared ones. A nil cache
// degrades to a plain Lookup. f must have exactly 4 variables, like
// Lookup's.
func (d *DB) LookupCached(f tt.TT, c *Cache) (e *Entry, t npn.Transform, ok, hit bool) {
	if c == nil {
		e, t, ok = d.Lookup(f)
		return e, t, ok, false
	}
	if f.N != 4 {
		panic(fmt.Sprintf("db: LookupCached requires a 4-variable function, got %d", f.N))
	}
	key := uint16(f.Bits)
	s := c.shard(key)
	s.mu.RLock()
	v, found := s.m[key]
	if found && s.limit > 0 {
		// Grant the entry a second chance against the eviction sweep.
		// limit is only written under the exclusive lock, so reading it
		// here is race-free, and refTouch is atomic against other readers.
		s.refTouch(key)
	}
	s.mu.RUnlock()
	if found {
		c.hits.Add(1)
		return v.entry, v.t, v.ok, true
	}
	e, t, ok = d.Lookup(f)
	c.misses.Add(1)
	s.mu.Lock()
	s.insert(key, cacheVal{entry: e, t: t, ok: ok})
	s.mu.Unlock()
	return e, t, ok, false
}
