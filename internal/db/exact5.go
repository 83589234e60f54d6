package db

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mighash/internal/exact"
	"mighash/internal/npn"
	"mighash/internal/obs"
	"mighash/internal/tt"
)

// The on-demand 5-input database. At five inputs the precomputation that
// makes the 4-input database possible stops scaling — there are ~616k
// NPN classes (Sec. IV discusses exactly this wall) — so the database is
// *learned*: the first time a cut function's class is needed, its
// minimum MIG is synthesized on the spot with the SAT engine of
// internal/exact under a strict budget, memoized under the class's
// semi-canonical representative (npn.Canonize5), and served from memory
// forever after. Classes that blow the budget are negative-cached so a
// hopeless ladder is climbed at most once per process (and, through the
// snapshot format, at most once per cache file).

// OnDemandOptions tunes the per-class synthesis budget of an OnDemand
// store. The budget counts conflicts, not wall time, so "class X is too
// hard" is a pure function of the class: two runs — at any worker count,
// in any lookup order — learn exactly the same database.
type OnDemandOptions struct {
	// MaxGates caps the ladder: classes needing more gates are
	// negative-cached. Replacing a 5-cut only profits when the cone is
	// bigger than the minimum MIG, and real cones of five-leaf cuts are
	// small, so the default of 7 keeps the brutal high-k UNSAT proofs
	// out of the hot path without giving up useful replacements.
	// Non-positive values select the default (there is no unlimited
	// setting; an empty ladder would negative-cache every class).
	MaxGates int
	// MaxConflicts bounds each SAT decision step. Default 10,000;
	// negative means unlimited.
	MaxConflicts int64
}

func (o OnDemandOptions) withDefaults() OnDemandOptions {
	if o.MaxGates <= 0 {
		// There is no "unlimited" ladder: a non-positive cap would make
		// every class fail instantly and — worse — persist the failures
		// as negative-cache records, so normalize to the default.
		o.MaxGates = 7
	}
	if o.MaxConflicts == 0 {
		o.MaxConflicts = 10_000
	}
	if o.MaxConflicts < 0 {
		o.MaxConflicts = 0
	}
	return o
}

// OnDemand is the lazy 5-input functional-hashing store. It is safe for
// concurrent use by any number of rewriting workers: lookups of learned
// classes are read-locked map hits, and a miss synthesizes under a
// per-class in-flight gate so concurrent misses of one class run the
// ladder once while other classes proceed unblocked.
//
// Entries are keyed by the semi-canonical representative of
// npn.Canonize5, so everything the store learns is valid for the whole
// NPN class. Learned and negative-cached classes travel through the
// width-tagged snapshot format of WriteSnapshot/ReadSnapshot, giving
// warm restarts the complete learned database.
type OnDemand struct {
	opt OnDemandOptions

	mu       sync.RWMutex
	entries  map[uint32]*Entry
	negative map[uint32]bool
	inflight map[uint32]chan struct{}
	// canon memoizes Canonize5 per queried 32-bit truth table — the
	// 5-input analog of db.Cache, here because the store already owns
	// the right lock and lifetime (8 bytes per distinct queried function).
	canon map[uint32]canonMemo

	hits     atomic.Uint64 // lookups answered from memory (incl. negative)
	misses   atomic.Uint64 // lookups that had to synthesize
	synths   atomic.Uint64 // ladders run (== misses, minus in-flight joins)
	failures atomic.Uint64 // ladders that blew the budget (negative-cached)
}

// canonMemo is one memoized semi-canonicalization: the class key and
// the transform instantiating the queried function from its rep.
type canonMemo struct {
	key uint32
	t   npn.Transform
}

// NewOnDemand returns an empty store with the given budget.
func NewOnDemand(opt OnDemandOptions) *OnDemand {
	opt = opt.withDefaults()
	return &OnDemand{
		opt:      opt,
		entries:  make(map[uint32]*Entry),
		negative: make(map[uint32]bool),
		inflight: make(map[uint32]chan struct{}),
		canon:    make(map[uint32]canonMemo),
	}
}

// canonize is Canonize5 memoized per queried truth table: repeats — the
// same cut function recurring across nodes, passes and iterations — are
// a read-locked map hit instead of a fresh signature enumeration.
func (s *OnDemand) canonize(f tt.TT) (uint32, npn.Transform) {
	fkey := uint32(f.Bits)
	s.mu.RLock()
	cm, ok := s.canon[fkey]
	s.mu.RUnlock()
	if ok {
		return cm.key, cm.t
	}
	rep, t := npn.Canonize5(f)
	key := uint32(rep.Bits)
	s.mu.Lock()
	s.canon[fkey] = canonMemo{key: key, t: t}
	s.mu.Unlock()
	return key, t
}

// Options returns the store's synthesis budget (defaults resolved).
func (s *OnDemand) Options() OnDemandOptions { return s.opt }

// Len returns the number of learned classes.
func (s *OnDemand) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// Candidates returns the total implementations the learned classes
// offer: one minimum-size primary per class plus the derived
// alternatives (Entry.Alts).
func (s *OnDemand) Candidates() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, e := range s.entries {
		n += e.NumCandidates()
	}
	return n
}

// NegativeLen returns the number of negative-cached (budget-blown) classes.
func (s *OnDemand) NegativeLen() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.negative)
}

// Hits returns the lookups answered from memory, including negative hits.
func (s *OnDemand) Hits() uint64 { return s.hits.Load() }

// Misses returns the lookups that had to run (or join) a synthesis.
func (s *OnDemand) Misses() uint64 { return s.misses.Load() }

// Synths returns the number of exact-synthesis ladders run.
func (s *OnDemand) Synths() uint64 { return s.synths.Load() }

// Failures returns the ladders that blew the budget (conflicts or the
// gate cap); each failed class is negative-cached.
func (s *OnDemand) Failures() uint64 { return s.failures.Load() }

func (s *OnDemand) String() string {
	return fmt.Sprintf("exact5: %d classes learned, %d negative, %d synths (%d failed), %d hits / %d misses",
		s.Len(), s.NegativeLen(), s.Synths(), s.Failures(), s.Hits(), s.Misses())
}

// Lookup resolves the minimum MIG of f's NPN class, learning it on
// first contact. It returns the entry together with the transform t
// satisfying npn.Apply(t, entry.Rep) = f, or ok=false when the class
// blew its synthesis budget (now or in a previous attempt). f must have
// exactly 5 variables.
//
// ctx cancels an in-flight ladder — a server can abandon synthesis when
// its request deadline passes. A cancelled lookup returns ok=false
// without negative-caching the class: the class is not hopeless, the
// caller just stopped waiting, so the next request retries it.
func (s *OnDemand) Lookup(ctx context.Context, f tt.TT) (*Entry, npn.Transform, bool) {
	if f.N != 5 {
		panic(fmt.Sprintf("db: OnDemand.Lookup requires a 5-variable function, got %d", f.N))
	}
	key, t := s.canonize(f)
	s.mu.RLock()
	e, found := s.entries[key]
	neg := s.negative[key]
	s.mu.RUnlock()
	if found {
		s.hits.Add(1)
		return e, t, true
	}
	if neg {
		s.hits.Add(1)
		return nil, npn.Transform{}, false
	}
	s.misses.Add(1)
	for {
		s.mu.Lock()
		if e, found := s.entries[key]; found {
			s.mu.Unlock()
			return e, t, true
		}
		if s.negative[key] {
			s.mu.Unlock()
			return nil, npn.Transform{}, false
		}
		if ch, busy := s.inflight[key]; busy {
			s.mu.Unlock()
			select {
			case <-ch:
				continue // re-read the maps: the runner published a verdict
			case <-ctx.Done():
				return nil, npn.Transform{}, false
			}
		}
		ch := make(chan struct{})
		s.inflight[key] = ch
		s.mu.Unlock()
		e, negCache := s.synthesize(ctx, tt.New(5, uint64(key)))
		s.mu.Lock()
		delete(s.inflight, key)
		if e != nil {
			s.entries[key] = e
		} else if negCache {
			s.negative[key] = true
		}
		s.mu.Unlock()
		close(ch)
		if e != nil {
			return e, t, true
		}
		return nil, npn.Transform{}, false
	}
}

// synthesize runs one budgeted ladder for rep. It returns the learned
// entry, or nil and whether the class should be negative-cached: true
// when the budget blew, false when the caller cancelled.
//
// The ladder is the heavy tail of the whole stack, so it gets its own
// trace span carrying the class representative, the conflicts spent, and
// the outcome — the attribution that turns "this request was slow" into
// "class 169ae443 burned 10k conflicts and was negative-cached".
func (s *OnDemand) synthesize(ctx context.Context, rep tt.TT) (*Entry, bool) {
	s.synths.Add(1)
	ctx, span := obs.Start(ctx, "exact5.ladder")
	defer span.End()
	span.SetStr("class", fmt.Sprintf("%08x", uint32(rep.Bits)))
	start := time.Now()
	m, ls, err := exact.MinimumStats(ctx, rep, exact.Options{
		MaxGates:     s.opt.MaxGates,
		MaxConflicts: s.opt.MaxConflicts,
	})
	span.SetInt("conflicts", ls.Conflicts)
	span.SetInt("steps", int64(ls.Steps))
	if err != nil {
		if ctx.Err() != nil {
			// The caller went away mid-ladder; the class itself was
			// never proven hard, so leave it retryable.
			span.SetStr("outcome", "cancelled")
			return nil, false
		}
		s.failures.Add(1)
		span.SetStr("outcome", "negative-cached")
		return nil, true
	}
	e, err := FromMIG(rep, m)
	if err != nil {
		// Impossible unless the synthesis engine mis-extracts; treat as
		// a budget failure rather than poisoning the store.
		s.failures.Add(1)
		span.SetStr("outcome", "negative-cached")
		return nil, true
	}
	e.GenTime = time.Since(start)
	// Derive the alternative-implementation menu while the class is hot:
	// derivation is deterministic, so a store populated cold and one
	// restored from a snapshot offer identical menus.
	e.Alts = deriveAlts(&e)
	span.SetStr("outcome", "learned")
	span.SetInt("gates", int64(ls.Gates))
	return &e, false
}

// add installs a pre-verified learned entry (snapshot restore). It
// reports whether the entry was new.
func (s *OnDemand) add(e *Entry) bool {
	key := uint32(e.Rep.Bits)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[key]; dup {
		return false
	}
	delete(s.negative, key) // a learned class trumps an old failure
	s.entries[key] = e
	return true
}

// addNegative installs a budget-blown class marker (snapshot restore).
// Known-learned classes win over negative records. It reports whether
// the marker was new.
func (s *OnDemand) addNegative(key uint32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, learned := s.entries[key]; learned {
		return false
	}
	if s.negative[key] {
		return false
	}
	s.negative[key] = true
	return true
}

// snapshotState copies the store's learned and negative classes for the
// snapshot writer, so serialization does not hold the lock.
func (s *OnDemand) snapshotState() (entries []*Entry, negatives []uint32) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries = make([]*Entry, 0, len(s.entries))
	for _, e := range s.entries {
		entries = append(entries, e)
	}
	negatives = make([]uint32, 0, len(s.negative))
	for k := range s.negative {
		negatives = append(negatives, k)
	}
	return entries, negatives
}
