package db

import "sync/atomic"

// Eviction keeps the cache's in-memory and on-disk footprint fixed when
// the key cardinality outgrows what a process wants to hold (today the
// 4-input function space caps a cache at 64Ki entries; >4-input classes
// will not be so polite). Each shard runs an independent second-chance
// ("clock") policy: keys live in a ring in insertion order, every cache
// hit sets the key's reference bit, and when a full shard needs room the
// clock hand sweeps the ring, clearing reference bits until it finds a
// key that has not been hit since the hand last passed — that key is
// evicted and its ring slot reused. Hot keys therefore survive arbitrary
// streams of one-shot keys, at O(1) amortized cost per insertion.
//
// The reference bits live in a per-shard bitmap indexed by key>>6 (the
// shard index is key&63, so the high 10 bits identify a key within its
// shard). Hits set bits with an atomic OR under the shard's read lock;
// the sweep reads and clears them under the write lock, which excludes
// all readers, so the sweep needs no atomics.

// SetLimit bounds the number of entries the cache retains, dividing the
// budget evenly across shards (rounded up, so the effective bound is the
// next multiple of the shard count). When the cache already holds more
// than the new bound, victims are evicted immediately by the same
// second-chance sweep. n <= 0 removes the bound (the default).
//
// SetLimit may be called at any time, including while other goroutines
// use the cache, but concurrent calls to SetLimit itself are not useful
// — last writer wins per shard.
func (c *Cache) SetLimit(n int) {
	per := 0
	if n > 0 {
		per = (n + cacheShardCount - 1) / cacheShardCount
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.limit = per
		for per > 0 && len(s.ring) > per {
			delete(s.m, s.pop(s.refTestAndClear))
		}
		s.mu.Unlock()
	}
}

// clock is the second-chance ring shared by the cut-cache shards and the
// on-demand 5-input store: keys in insertion order and the sweeping
// hand. The reference bits stay with the owner, whose test-and-clear
// each eviction takes; the owner's write lock guards the ring.
type clock[K comparable] struct {
	ring []K
	hand int
}

// sweep advances the hand past every key whose reference bit
// referenced reports set (clearing it: the key's second chance) and
// returns the ring index of the first key without one. The ring must not
// be empty.
func (c *clock[K]) sweep(referenced func(K) bool) int {
	for {
		if c.hand >= len(c.ring) {
			c.hand = 0
		}
		if !referenced(c.ring[c.hand]) {
			return c.hand
		}
		c.hand++
	}
}

// push appends key, or, once the ring holds limit keys (limit > 0),
// evicts the sweep's victim and reuses its slot for key. It reports the
// victim.
func (c *clock[K]) push(key K, limit int, referenced func(K) bool) (victim K, evicted bool) {
	if limit <= 0 || len(c.ring) < limit {
		c.ring = append(c.ring, key)
		return victim, false
	}
	i := c.sweep(referenced)
	victim, c.ring[i] = c.ring[i], key
	c.hand++
	return victim, true
}

// pop evicts the sweep's victim and shrinks the ring (the immediate
// shrink of a lowered limit; the steady state reuses slots instead).
func (c *clock[K]) pop(referenced func(K) bool) K {
	i := c.sweep(referenced)
	victim, last := c.ring[i], len(c.ring)-1
	c.ring[i] = c.ring[last]
	c.ring = c.ring[:last]
	return victim
}

// insert adds or overwrites key under the shard's write lock, evicting a
// victim first when the shard is at its bound. Callers must hold s.mu.
func (s *cacheShard) insert(key uint16, v cacheVal) {
	if _, dup := s.m[key]; dup {
		// Two goroutines raced on the same miss; the ring already holds
		// the key exactly once.
		s.m[key] = v
		return
	}
	if victim, ok := s.push(key, s.limit, s.refTestAndClear); ok {
		delete(s.m, victim)
	}
	s.m[key] = v
	s.refClear(key)
}

// refIndex maps a key of this shard onto its reference-bit index.
func refIndex(key uint16) uint { return uint(key) >> 6 }

// refTouch sets key's reference bit. Called under RLock, so it must be
// atomic with respect to other readers touching the same word.
func (s *cacheShard) refTouch(key uint16) {
	i := refIndex(key)
	atomic.OrUint64(&s.ref[i/64], 1<<(i%64))
}

// refTestAndClear reports and clears key's reference bit. Called under
// the write lock only, which excludes every refTouch.
func (s *cacheShard) refTestAndClear(key uint16) bool {
	i := refIndex(key)
	w, b := i/64, uint64(1)<<(i%64)
	set := s.ref[w]&b != 0
	s.ref[w] &^= b
	return set
}

// refClear drops key's reference bit (fresh insertions start without a
// second chance). Called under the write lock only.
func (s *cacheShard) refClear(key uint16) {
	i := refIndex(key)
	s.ref[i/64] &^= 1 << (i % 64)
}
