package db

import (
	"math/rand"
	"sync"
	"testing"

	"mighash/internal/tt"
)

// TestCacheMatchesLookup checks LookupCached against Lookup for every
// 4-variable function: identical entry, transform and ok, a miss on first
// sight and a hit on the second.
func TestCacheMatchesLookup(t *testing.T) {
	d := mustLoad(t)
	c := NewCache()
	for v := 0; v < 1<<16; v++ {
		f := tt.New(4, uint64(v))
		we, wt, wok := d.Lookup(f)
		e, tr, ok, hit := d.LookupCached(f, c)
		if e != we || tr != wt || ok != wok || hit {
			t.Fatalf("%04x: first lookup (%p,%v,%v,hit=%v) != plain (%p,%v,%v)", v, e, tr, ok, hit, we, wt, wok)
		}
		e, tr, ok, hit = d.LookupCached(f, c)
		if e != we || tr != wt || ok != wok || !hit {
			t.Fatalf("%04x: second lookup (%p,%v,%v,hit=%v) != cached (%p,%v,%v)", v, e, tr, ok, hit, we, wt, wok)
		}
	}
	if len(c.m) != 1<<16 {
		t.Errorf("cache holds %d entries, want %d", len(c.m), 1<<16)
	}
}

// TestCacheConcurrent runs many goroutines over one shared DB, each with
// its own cache (the rewrite workers' access pattern); run under -race
// this is the data-race check for the shared, immutable side.
func TestCacheConcurrent(t *testing.T) {
	d := mustLoad(t)
	const workers = 16
	const perWorker = 20000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			c := NewCache()
			hits := 0
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perWorker; i++ {
				f := tt.New(4, rng.Uint64()&0xFFFF)
				e, tr, ok, hit := d.LookupCached(f, c)
				we, wt, wok := d.Lookup(f)
				if e != we || tr != wt || ok != wok {
					t.Errorf("concurrent lookup of %04x diverged", f.Bits)
					return
				}
				if hit {
					hits++
				}
			}
			if misses := perWorker - hits; misses != len(c.m) {
				t.Errorf("worker %d: %d misses for %d cached functions", seed, misses, len(c.m))
			}
		}(int64(w))
	}
	wg.Wait()
}

func mustLoad(t testing.TB) *DB {
	t.Helper()
	d, err := Load()
	if err != nil {
		t.Fatalf("embedded database unavailable (run cmd/migdb): %v", err)
	}
	return d
}
