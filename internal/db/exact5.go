package db

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mighash/internal/exact"
	"mighash/internal/fault"
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
// store. The defaults deliberately bias toward determinism: the conflict
// budget makes "class X is too hard" a pure function of the class, so
// two runs — at any worker count — learn exactly the same database.
// Timeout trades that reproducibility for a wall-clock bound; it is off
// by default and meant for latency-sensitive servers.
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
	// Timeout bounds each class's whole ladder in wall-clock time.
	// Default 0 (no wall-clock bound — deterministic).
	Timeout time.Duration
	// BreakerFailures arms the synthesis circuit breaker: after this many
	// consecutive failed ladders (budget-blown or fault-injected — a SAT
	// engine in trouble, a disk of swap, an injected chaos fault) the
	// store trips into a cooldown where lookups of unlearned classes
	// resolve as plain misses without running a ladder. The K = 4 path
	// still optimizes and results stay sound — a breaker-open miss just
	// forgoes a possible 5-cut replacement, it never serves a wrong one.
	// 0 disables the breaker (the default): like Timeout, the breaker
	// trades the store's learn-everything determinism for bounded latency
	// under pathological load, so it is opt-in for servers.
	BreakerFailures int
	// BreakerCooldown is how long a tripped breaker stays open before a
	// single probe ladder is allowed through. A successful probe closes
	// the breaker and resumes learning; a failed one re-trips it for
	// another cooldown. Default 30s when BreakerFailures > 0.
	BreakerCooldown time.Duration
	// Limit bounds the learned classes kept in memory (0, the default,
	// keeps everything). At the bound the store evicts with a
	// second-chance clock (evict5.go); evicted classes are simply
	// re-learned on next contact. Like Timeout, a bound trades the
	// store's learn-once determinism for predictable memory, so it is
	// opt-in and meant for long-running servers (migserve -synth-limit).
	Limit int
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
	if o.BreakerFailures < 0 {
		o.BreakerFailures = 0
	}
	if o.BreakerFailures > 0 && o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 30 * time.Second
	}
	if o.Limit < 0 {
		o.Limit = 0
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
	entries  map[uint32]*odSlot
	negative map[uint32]bool
	inflight map[uint32]chan struct{}
	// canon memoizes Canonize5 per queried 32-bit truth table — the
	// 5-input analog of db.Cache, here because the store already owns
	// the right lock and lifetime. It stays unbounded (8 bytes per
	// distinct queried function); only the learned entries — the part
	// that holds gate structures — fall under Limit.
	canon map[uint32]canonMemo

	// Second-chance clock state (see evict5.go); inert with limit == 0.
	limit int
	clock[uint32]
	evictions atomic.Uint64

	hits     atomic.Uint64 // lookups answered from memory (incl. negative)
	misses   atomic.Uint64 // lookups that had to synthesize
	synths   atomic.Uint64 // ladders run (== misses, minus in-flight joins)
	failures atomic.Uint64 // ladders that failed (budget-blown or injected)

	// Circuit-breaker state (inert with BreakerFailures == 0). brkMu is
	// taken only on the ladder path — never on the read-locked hit path —
	// so the breaker costs learned-class lookups nothing.
	brkMu        sync.Mutex
	consecFails  int           // consecutive failed ladders; ≥ threshold = tripped
	brkOpenUntil time.Time     // while tripped: when the next probe is allowed
	brkProbe     bool          // a half-open probe ladder is in flight
	brkTrips     atomic.Uint64 // times the breaker tripped (incl. re-trips)
	brkSkips     atomic.Uint64 // lookups resolved as misses by an open breaker
}

// Breaker states reported by BreakerState.
const (
	BreakerClosed   = 0 // ladders run normally
	BreakerHalfOpen = 1 // cooldown over; one probe ladder allowed
	BreakerOpen     = 2 // cooling down; lookups resolve as plain misses
)

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
		limit:    opt.Limit,
		entries:  make(map[uint32]*odSlot),
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
	for _, sl := range s.entries {
		n += sl.e.NumCandidates()
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

// Failures returns the ladders that failed: budget-blown (conflicts,
// wall-clock, or the gate cap — negative-cached) plus fault-injected
// failures (transient, retried once the breaker allows).
func (s *OnDemand) Failures() uint64 { return s.failures.Load() }

// BreakerState reports the synthesis circuit breaker's current state:
// BreakerClosed, BreakerHalfOpen or BreakerOpen. Always BreakerClosed
// when the breaker is disabled (OnDemandOptions.BreakerFailures == 0).
func (s *OnDemand) BreakerState() int {
	if s.opt.BreakerFailures == 0 {
		return BreakerClosed
	}
	s.brkMu.Lock()
	defer s.brkMu.Unlock()
	if s.consecFails < s.opt.BreakerFailures {
		return BreakerClosed
	}
	if time.Now().Before(s.brkOpenUntil) {
		return BreakerOpen
	}
	return BreakerHalfOpen
}

// BreakerTrips returns how many times the breaker opened (including
// re-trips after a failed half-open probe).
func (s *OnDemand) BreakerTrips() uint64 { return s.brkTrips.Load() }

// BreakerSkips returns the lookups an open breaker resolved as plain
// misses without running a ladder.
func (s *OnDemand) BreakerSkips() uint64 { return s.brkSkips.Load() }

// breakerAcquire decides whether a ladder may run now. Closed: always.
// Open: never (the caller resolves the lookup as a miss). Half-open
// (cooldown over): exactly one probe ladder at a time.
func (s *OnDemand) breakerAcquire() bool {
	if s.opt.BreakerFailures == 0 {
		return true
	}
	s.brkMu.Lock()
	defer s.brkMu.Unlock()
	if s.consecFails < s.opt.BreakerFailures {
		return true
	}
	if time.Now().Before(s.brkOpenUntil) {
		return false
	}
	if s.brkProbe {
		return false
	}
	s.brkProbe = true
	return true
}

// breakerReport folds one finished ladder into the breaker: a learned
// class closes the breaker, a failure (budget-blown or injected) counts
// toward the trip threshold and — at or past it — opens the breaker for
// a cooldown. Cancelled ladders say nothing about the engine's health
// and leave the failure streak untouched.
func (s *OnDemand) breakerReport(learned, failed bool) {
	if s.opt.BreakerFailures == 0 {
		return
	}
	s.brkMu.Lock()
	defer s.brkMu.Unlock()
	s.brkProbe = false
	switch {
	case learned:
		s.consecFails = 0
	case failed:
		s.consecFails++
		if s.consecFails >= s.opt.BreakerFailures {
			now := time.Now()
			if now.After(s.brkOpenUntil) {
				// Transition into (or back into) an open window; pure
				// extensions of a window already open — concurrent ladders
				// finishing after the trip — are not separate trips.
				s.brkTrips.Add(1)
			}
			s.brkOpenUntil = now.Add(s.opt.BreakerCooldown)
		}
	}
}

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
	sl, found := s.entries[key]
	neg := s.negative[key]
	var e *Entry
	if found {
		e = sl.e
		if s.limit > 0 {
			sl.refTouch()
		}
	}
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
		if sl, found := s.entries[key]; found {
			e := sl.e
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
		if !s.breakerAcquire() {
			// Breaker open: the ladder engine is in trouble, so resolve as
			// a plain miss — the K = 4 path still optimizes this cut, and
			// the class stays unlearned, retried after the cooldown.
			s.mu.Unlock()
			s.brkSkips.Add(1)
			return nil, npn.Transform{}, false
		}
		ch := make(chan struct{})
		s.inflight[key] = ch
		s.mu.Unlock()
		e, negCache, failed := s.synthesize(ctx, tt.New(5, uint64(key)))
		s.breakerReport(e != nil, failed)
		s.mu.Lock()
		delete(s.inflight, key)
		if e != nil {
			s.insertLocked(key, e)
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
// entry, whether the class should be negative-cached, and whether the
// ladder failed (feeding the circuit breaker): (e, false, false) on
// success, (nil, true, true) when the budget blew, (nil, false, true)
// for a fault-injected failure — transient, so not negative-cached —
// and (nil, false, false) when the failure was the caller's
// cancellation.
//
// The ladder is the heavy tail of the whole stack, so it gets its own
// trace span carrying the class representative, the conflicts spent, and
// the outcome — the attribution that turns "this request was slow" into
// "class 169ae443 burned 10k conflicts and was negative-cached".
func (s *OnDemand) synthesize(ctx context.Context, rep tt.TT) (*Entry, bool, bool) {
	s.synths.Add(1)
	ctx, span := obs.Start(ctx, "exact5.ladder")
	defer span.End()
	span.SetStr("class", fmt.Sprintf("%08x", uint32(rep.Bits)))
	// Failpoint "db/exact5-ladder": an injected ladder failure or delay.
	// An injected failure is transient — the class was never proven hard,
	// so it is not negative-cached (a restart must re-attempt it) — but
	// it does count as a failed ladder toward the circuit breaker.
	if err := fault.Hit("db/exact5-ladder"); err != nil {
		s.failures.Add(1)
		span.SetStr("outcome", "fault-injected")
		return nil, false, true
	}
	start := time.Now()
	m, ls, err := exact.MinimumStats(ctx, rep, exact.Options{
		MaxGates:     s.opt.MaxGates,
		MaxConflicts: s.opt.MaxConflicts,
		Timeout:      s.opt.Timeout,
	})
	span.SetInt("conflicts", ls.Conflicts)
	span.SetInt("steps", int64(ls.Steps))
	if err != nil {
		if ctx.Err() != nil {
			// The caller went away mid-ladder; the class itself was
			// never proven hard, so leave it retryable.
			span.SetStr("outcome", "cancelled")
			return nil, false, false
		}
		s.failures.Add(1)
		span.SetStr("outcome", "negative-cached")
		return nil, true, true
	}
	e, err := FromMIG(rep, m)
	if err != nil {
		// Impossible unless the synthesis engine mis-extracts; treat as
		// a budget failure rather than poisoning the store.
		s.failures.Add(1)
		span.SetStr("outcome", "negative-cached")
		return nil, true, true
	}
	e.GenTime = time.Since(start)
	// Derive the alternative-implementation menu while the class is hot:
	// derivation is deterministic, so a store populated cold and one
	// restored from a snapshot offer identical menus.
	e.Alts = deriveAlts(&e)
	span.SetStr("outcome", "learned")
	span.SetInt("gates", int64(ls.Gates))
	return &e, false, false
}

// add installs a pre-verified learned entry (snapshot restore). It
// reports whether the entry was new. Restores respect the store's
// bound: at the limit, installing evicts.
func (s *OnDemand) add(e *Entry) bool {
	key := uint32(e.Rep.Bits)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[key]; dup {
		return false
	}
	delete(s.negative, key) // a learned class trumps an old failure
	s.insertLocked(key, e)
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
	for _, sl := range s.entries {
		entries = append(entries, sl.e)
	}
	negatives = make([]uint32, 0, len(s.negative))
	for k := range s.negative {
		negatives = append(negatives, k)
	}
	return entries, negatives
}
