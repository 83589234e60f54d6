package db

import "sync/atomic"

// Bounding the on-demand store. The store runs a second-chance clock
// over its own reference bits: learned classes live in slots carrying a
// reference bit, the bit is set by read-locked hits, and when the store
// is full the clock hand sweeps the ring of keys, granting one second
// chance (clearing the bit) before evicting the first un-referenced
// victim. An evicted class is simply re-learned on next contact — the
// negative cache and the canonization memo are tiny per class (a map
// key) and are deliberately not bounded here, so a budget-blown class
// is still never re-proven hopeless.
//
// A bounded store trades the "learn everything once" determinism for
// bounded memory: which classes survive depends on lookup interleaving,
// so — like Timeout and the circuit breaker — the limit is opt-in and
// meant for long-running servers (migserve -synth-limit).

// odSlot is one learned class in the store: the entry plus the clock
// reference bit. The bit is written on the read-locked hit path, so it
// is atomic; the rest of the slot is immutable after publication.
type odSlot struct {
	e   *Entry
	ref atomic.Bool
}

// refTouch marks the slot recently used. Called with s.mu read-locked.
func (sl *odSlot) refTouch() { sl.ref.Store(true) }

// Limit returns the store's current capacity bound (0 = unbounded).
func (s *OnDemand) Limit() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.limit
}

// SetLimit bounds the learned classes kept in memory to n (0 removes
// the bound). A shrinking limit evicts immediately. Safe to call at any
// time, including while lookups are in flight.
func (s *OnDemand) SetLimit(n int) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.limit = n
	for s.limit > 0 && len(s.entries) > s.limit {
		delete(s.entries, s.pop(s.refTestAndClear))
		s.evictions.Add(1)
	}
}

// Evictions returns how many learned classes the clock has evicted.
func (s *OnDemand) Evictions() uint64 { return s.evictions.Load() }

// insertLocked publishes a learned entry under the store's write lock,
// evicting a victim first when the store is at its bound. Duplicate
// keys overwrite in place (their ring slot survives).
func (s *OnDemand) insertLocked(key uint32, e *Entry) {
	if sl, dup := s.entries[key]; dup {
		sl.e = e
		sl.ref.Store(false)
		return
	}
	if victim, ok := s.push(key, s.limit, s.refTestAndClear); ok {
		delete(s.entries, victim)
		s.evictions.Add(1)
	}
	s.entries[key] = &odSlot{e: e}
}

// refTestAndClear reports and clears the reference bit of key's slot.
// Called with s.mu write-locked.
func (s *OnDemand) refTestAndClear(key uint32) bool {
	sl := s.entries[key]
	return sl != nil && sl.ref.Swap(false)
}

// clock is the second-chance ring: keys in insertion order and the
// sweeping hand. The reference bits stay with the owner, whose
// test-and-clear each eviction takes; the owner's write lock guards the
// ring.
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
