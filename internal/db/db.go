package db

import (
	"bufio"
	"context"
	"embed"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mighash/internal/exact"
	"mighash/internal/mig"
	"mighash/internal/npn"
	"mighash/internal/tt"
)

//go:embed data/npn4.txt
var embedded embed.FS

// DB is the functional-hashing database: minimum MIGs for all NPN classes
// of 4-variable functions, indexed by class representative.
type DB struct {
	entries []Entry
	byRep   map[uint16]int

	// Alternative-candidate derivation state (see EnsureAlts). Load()
	// shares one DB per process, so the menus are derived exactly once.
	altsOnce sync.Once
	altCount atomic.Int64
}

// Entries returns the entries ordered by representative truth table.
func (d *DB) Entries() []Entry { return d.entries }

// Len returns the number of classes in the database (222 when complete).
func (d *DB) Len() int { return len(d.entries) }

// Lookup returns the database entry for the NPN class of f together with
// the transform t satisfying npn.Apply(t, entry.Rep) = f, so that
// entry.Instantiate(m, leaves, t) builds f. f must have exactly 4
// variables (expand smaller functions with tt.Expand first).
func (d *DB) Lookup(f tt.TT) (*Entry, npn.Transform, bool) {
	rep, t := npn.Canonize(f)
	i, ok := d.byRep[uint16(rep.Bits)]
	if !ok {
		return nil, npn.Transform{}, false
	}
	return &d.entries[i], t, true
}

// Cache memoizes Lookup for one goroutine: a plain map from 4-input
// truth table to lookup result, with no locks, so each rewrite
// workspace owns its own. It holds *Entry pointers of the DB it
// was filled through and must not be used with another DB.
type Cache struct {
	m map[uint16]cacheVal
}

// cacheVal is one memoized lookup result. ok is false for functions whose
// NPN class is absent from the DB (only possible with partial databases).
type cacheVal struct {
	entry *Entry
	t     npn.Transform
	ok    bool
}

// NewCache returns an empty cache.
func NewCache() *Cache { return &Cache{m: make(map[uint16]cacheVal)} }

// LookupCached is Lookup memoized through c: identical in result, with
// the canonicalization and class lookup skipped on a hit, which hit
// reports so callers can count their own traffic. f must have exactly 4
// variables, like Lookup's.
func (d *DB) LookupCached(f tt.TT, c *Cache) (e *Entry, t npn.Transform, ok, hit bool) {
	if f.N != 4 {
		panic(fmt.Sprintf("db: LookupCached requires a 4-variable function, got %d", f.N))
	}
	key := uint16(f.Bits)
	if v, found := c.m[key]; found {
		return v.entry, v.t, v.ok, true
	}
	e, t, ok = d.Lookup(f)
	c.m[key] = cacheVal{entry: e, t: t, ok: ok}
	return e, t, ok, false
}

// Build instantiates a minimum MIG computing f (any function of up to 4
// variables) inside m over the given leaf signals. Missing leaves are
// padded with constant 0; they can only be selected by the transform for
// variables outside the support of f. It returns false if the class is
// missing from the database.
func (d *DB) Build(m *mig.MIG, f tt.TT, leaves []mig.Lit) (mig.Lit, bool) {
	if f.N > 4 {
		panic(fmt.Sprintf("db: Build requires at most 4 variables, got %d", f.N))
	}
	if len(leaves) < f.N {
		panic(fmt.Sprintf("db: %d leaves for a %d-variable function", len(leaves), f.N))
	}
	e, t, ok := d.Lookup(f.Expand(4))
	if !ok {
		return 0, false
	}
	var padded [4]mig.Lit
	copy(padded[:], leaves)
	return e.Instantiate(m, padded[:], t), true
}

// Size returns the minimum MIG size C(f) recorded for f's class, or -1 if
// the class is missing.
func (d *DB) Size(f tt.TT) int {
	e, _, ok := d.Lookup(f)
	if !ok {
		return -1
	}
	return e.Size()
}

// New builds a DB from entries, rejecting duplicates and non-representative
// keys.
func New(entries []Entry) (*DB, error) {
	d := &DB{byRep: make(map[uint16]int, len(entries))}
	for _, e := range entries {
		if rep := npn.ClassOf4(e.Rep); rep != e.Rep {
			return nil, fmt.Errorf("db: %04x is not a class representative (class %04x)", e.Rep.Bits, rep.Bits)
		}
		if _, dup := d.byRep[uint16(e.Rep.Bits)]; dup {
			return nil, fmt.Errorf("db: duplicate entry for %04x", e.Rep.Bits)
		}
		d.byRep[uint16(e.Rep.Bits)] = len(d.entries)
		d.entries = append(d.entries, e)
	}
	sort.Slice(d.entries, func(i, j int) bool { return d.entries[i].Rep.Bits < d.entries[j].Rep.Bits })
	for i := range d.entries {
		d.byRep[uint16(d.entries[i].Rep.Bits)] = i
	}
	return d, nil
}

// Write renders the database as the text artifact format.
func (d *DB) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# mighash npn4 minimum-MIG database: %d classes\n", len(d.entries))
	fmt.Fprintf(bw, "# line: <rep-hex4> k=<gates> out=<lit> gates=<a.b.c;...> us=<synthesis-µs>\n")
	fmt.Fprintf(bw, "# literals are id*2+complement; ids: 0=const0, 1..4=x1..x4, 5+l=gate l\n")
	for i := range d.entries {
		fmt.Fprintln(bw, d.entries[i].format())
	}
	return bw.Flush()
}

// Read parses and verifies a database artifact.
func Read(r io.Reader) (*DB, error) {
	var entries []Entry
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseEntry(line)
		if err != nil {
			return nil, err
		}
		entries = append(entries, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return New(entries)
}

var (
	loadOnce sync.Once
	loaded   *DB
	loadErr  error
)

// Load returns the embedded database, verified by simulation. The result
// is cached; concurrent callers share one instance.
func Load() (*DB, error) {
	loadOnce.Do(func() {
		f, err := embedded.Open("data/npn4.txt")
		if err != nil {
			loadErr = err
			return
		}
		defer f.Close()
		d, err := Read(f)
		if err != nil {
			loadErr = err
			return
		}
		if d.Len() != npn.NumClasses4() {
			loadErr = fmt.Errorf("db: embedded artifact has %d classes, want %d (regenerate with cmd/migdb)",
				d.Len(), npn.NumClasses4())
			return
		}
		loaded = d
	})
	return loaded, loadErr
}

// MustLoad is Load for contexts where a missing artifact is a programming
// error (examples, benchmarks).
func MustLoad() *DB {
	d, err := Load()
	if err != nil {
		panic(err)
	}
	return d
}

// Generate synthesizes the full database with the exact-synthesis engine:
// one minimum MIG per 4-variable NPN class (Sec. III of the paper, run as
// in Sec. V-A). Generation runs in two phases: first every class in
// parallel across `workers` goroutines (NumCPU when 0) with a per-class
// budget (opt.Timeout, defaulting to 60 s when unset), then the stragglers
// — in practice only the hardest one or two UNSAT proofs — sequentially
// with the whole machine behind exact.DecideSplit, so the tail does not
// serialize onto a single core. progress, when non-nil, is called after
// every class of either phase.
func Generate(opt exact.Options, workers int, progress func(done, total int, e Entry)) (*DB, error) {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	phase1 := opt
	if phase1.Timeout == 0 {
		phase1.Timeout = time.Minute
	}
	reps := npn.Classes(4)
	type result struct {
		e   Entry
		err error
	}
	results := make([]result, len(reps))
	var (
		wg   sync.WaitGroup
		next int
		mu   sync.Mutex
		done int
	)
	report := func(i int) {
		if progress != nil {
			mu.Lock()
			done++
			progress(done, len(reps), results[i].e)
			mu.Unlock()
		}
	}
	solve := func(i int, o exact.Options, splitWorkers int) {
		start := time.Now()
		var (
			m   *mig.MIG
			err error
		)
		if splitWorkers > 1 {
			m, err = exact.MinimumParallel(context.Background(), reps[i], o, splitWorkers, 5)
		} else {
			m, err = exact.Minimum(context.Background(), reps[i], o)
		}
		if err != nil {
			results[i] = result{err: fmt.Errorf("class %04x: %w", reps[i].Bits, err)}
			return
		}
		e, err := FromMIG(reps[i], m)
		e.GenTime = time.Since(start)
		results[i] = result{e: e, err: err}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(reps) {
					return
				}
				solve(i, phase1, 1)
				if results[i].err == nil {
					report(i)
				}
			}
		}()
	}
	wg.Wait()
	// Phase 2: retry budget casualties with cube-and-conquer on all cores.
	for i := range results {
		if results[i].err == nil {
			continue
		}
		solve(i, opt, workers)
		report(i)
	}
	entries := make([]Entry, 0, len(reps))
	for _, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		entries = append(entries, r.e)
	}
	return New(entries)
}
